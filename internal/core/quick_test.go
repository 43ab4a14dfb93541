package core_test

import (
	"reflect"
	"testing"
	"testing/quick"

	"jumpslice/internal/cfg"
	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// quickCfg bounds testing/quick's exploration; seeds map through the
// deterministic generators, so shrinking isn't needed — failures print
// the seed.
var quickCfg = &quick.Config{MaxCount: 60}

// analyzeSeed builds an analysis for a quick-generated seed.
func analyzeSeed(seed uint64, structured bool) (*core.Analysis, []core.Criterion) {
	gen := progen.Unstructured
	if structured {
		gen = progen.Structured
	}
	p := gen(progen.Config{Seed: int64(seed % 4096), Stmts: 24})
	a, err := core.Analyze(p)
	if err != nil {
		panic(err)
	}
	var crits []core.Criterion
	for _, wc := range progen.WriteCriteria(p) {
		crits = append(crits, core.Criterion{Var: wc.Var, Line: wc.Line})
	}
	if len(crits) > 2 {
		crits = crits[len(crits)-2:]
	}
	return a, crits
}

// Property: slicing is idempotent — slicing the materialized slice on
// the same criterion returns the same line set.
func TestQuickSliceIdempotent(t *testing.T) {
	f := func(seed uint64, structured bool) bool {
		a, crits := analyzeSeed(seed, structured)
		for _, c := range crits {
			s1, err := a.Agrawal(c)
			if err != nil {
				return false
			}
			sub := s1.Materialize()
			a2, err := core.Analyze(sub)
			if err != nil {
				return false
			}
			s2, err := a2.Agrawal(c)
			if err != nil {
				return false
			}
			// Slicing a slice never grows it.
			l1, l2 := s1.Lines(), s2.Lines()
			set1 := map[int]bool{}
			for _, l := range l1 {
				set1[l] = true
			}
			for _, l := range l2 {
				if !set1[l] {
					t.Logf("seed %d %v: re-slice line %d not in original slice %v", seed, c, l, l1)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: the slice is monotone in the criterion — slicing on a
// variable at the same line twice gives identical results (purity of
// the API).
func TestQuickSliceDeterministic(t *testing.T) {
	f := func(seed uint64, structured bool) bool {
		a, crits := analyzeSeed(seed, structured)
		for _, c := range crits {
			s1, err := a.Agrawal(c)
			if err != nil {
				return false
			}
			s2, err := a.Agrawal(c)
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(s1.Lines(), s2.Lines()) {
				return false
			}
			if !reflect.DeepEqual(s1.RelabeledLines(), s2.RelabeledLines()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: every slice contains its criterion statement and the
// dummy entry node, and every slice member is a real node ID.
func TestQuickSliceWellFormed(t *testing.T) {
	f := func(seed uint64, structured bool) bool {
		a, crits := analyzeSeed(seed, structured)
		for _, c := range crits {
			s, err := a.Agrawal(c)
			if err != nil {
				return false
			}
			found := false
			for _, id := range s.StatementNodes() {
				if id < 0 || id >= a.CFG.NumNodes() {
					return false
				}
				if a.CFG.Nodes[id].Line == c.Line {
					found = true
				}
			}
			if !found {
				t.Logf("seed %d: criterion %v not in its own slice", seed, c)
				return false
			}
			if !s.Has(a.CFG.Entry.ID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: materialized slices of generated programs always re-parse
// and re-analyze.
func TestQuickMaterializeRoundTrip(t *testing.T) {
	f := func(seed uint64, structured bool) bool {
		a, crits := analyzeSeed(seed, structured)
		for _, c := range crits {
			s, err := a.Agrawal(c)
			if err != nil {
				return false
			}
			src := lang.Format(s.Materialize(), lang.PrintOptions{})
			if _, err := lang.Parse(src); err != nil {
				t.Logf("seed %d %v: %v\n%s", seed, c, err, src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: the conventional slice is always a subset of the Agrawal
// slice (the repair only adds).
func TestQuickConventionalSubsetOfAgrawal(t *testing.T) {
	f := func(seed uint64, structured bool) bool {
		a, crits := analyzeSeed(seed, structured)
		for _, c := range crits {
			conv, err := a.Conventional(c)
			if err != nil {
				return false
			}
			convNodes := append([]int(nil), conv.StatementNodes()...)
			ag, err := a.Agrawal(c)
			if err != nil {
				return false
			}
			for _, id := range convNodes {
				if !ag.Has(id) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: jumps added by the repair are actual jump statements.
func TestQuickAddedJumpsAreJumps(t *testing.T) {
	f := func(seed uint64, structured bool) bool {
		a, crits := analyzeSeed(seed, structured)
		for _, c := range crits {
			s, err := a.Agrawal(c)
			if err != nil {
				return false
			}
			for _, id := range s.JumpsAdded {
				if !a.CFG.Nodes[id].Kind.IsJump() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: retargeted labels always land on slice members (or line 0
// for end-of-program), and only gotos in the slice trigger
// retargeting.
func TestQuickRelabelingWellFormed(t *testing.T) {
	f := func(seed uint64) bool {
		a, crits := analyzeSeed(seed, false)
		for _, c := range crits {
			s, err := a.Agrawal(c)
			if err != nil {
				return false
			}
			inSlice := map[int]bool{}
			for _, l := range s.Lines() {
				inSlice[l] = true
			}
			for label, line := range s.RelabeledLines() {
				if line != 0 && !inSlice[line] {
					t.Logf("seed %d: label %s re-attached to non-slice line %d", seed, label, line)
					return false
				}
				// The original target must be outside the slice.
				if target, ok := a.CFG.LabelNode[label]; ok && s.Has(target) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: the flowgraph of any generated program is well-formed —
// single entry/exit, mirrored pred/succ lists, jumps with targets.
func TestQuickCFGWellFormed(t *testing.T) {
	f := func(seed uint64, structured bool) bool {
		a, _ := analyzeSeed(seed, structured)
		g := a.CFG
		entries, exits := 0, 0
		for _, n := range g.Nodes {
			switch n.Kind {
			case cfg.KindEntry:
				entries++
			case cfg.KindExit:
				exits++
				if len(n.Out) != 0 {
					return false
				}
			}
			if n.Kind.IsJump() && n.Target == nil {
				return false
			}
			for _, e := range n.Out {
				mirrored := false
				for _, p := range g.Nodes[e.To].In {
					if p == n.ID {
						mirrored = true
					}
				}
				if !mirrored {
					return false
				}
			}
		}
		return entries == 1 && exits == 1
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}
