package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"jumpslice/internal/bits"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

// passNormalize is the pass-based normalization, kept as the property
// tests' oracle for the slicing relation: it never walks an invariant
// as an edge, but after every plain dependence closure rescans every
// conditional-jump predicate and every switch-enclosed node, growing
// each violated invariant's target, until a pass adds nothing.
func passNormalize(a *Analysis, set *bits.Set) {
	for {
		changed := false
		for p, j := range a.condJumpOf {
			if j >= 0 && set.Has(p) && !set.Has(j) {
				a.PDG.GrowClosure(set, j)
				changed = true
			}
		}
		for id, sw := range a.enclosingSwitch {
			if sw >= 0 && set.Has(id) && !set.Has(sw) {
				a.PDG.GrowClosure(set, sw)
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// passEngine runs every algorithm of this package on the oracle:
// plain pdg.GrowClosure dependence closures, each followed by
// passNormalize. Every closure the algorithms take is normalized in
// both formulations (the Entry node Analysis.slice adds afterwards
// takes part in no invariant), so the two must agree step for step.
type passEngine struct{ a *Analysis }

func (e passEngine) backwardClosure(seeds []int) (*bits.Set, error) {
	set := e.a.PDG.BackwardClosure(seeds)
	passNormalize(e.a, set)
	return set, nil
}

func (e passEngine) grow(set *bits.Set, seed int) error {
	e.a.PDG.GrowClosure(set, seed)
	passNormalize(e.a, set)
	return nil
}

// oracleCorpus is the property tests' program set: the structured
// generator (switches included) and the unstructured one at two
// sizes, plus the paper's Figure 8 (a closure pulling in a further
// conditional-jump predicate) and Figure 14 (switch fall-through).
func oracleCorpus(t *testing.T, seeds int) []*lang.Program {
	t.Helper()
	var progs []*lang.Program
	for seed := int64(0); seed < int64(seeds); seed++ {
		for _, stmts := range []int{30, 120} {
			c := progen.Config{Seed: seed, Stmts: stmts}
			progs = append(progs, progen.Structured(c), progen.Unstructured(c))
		}
	}
	return append(progs, paper.Fig8().Parse(), paper.Fig14().Parse())
}

// TestPropertyRelationClosureMatchesPasses pins the closures over the
// slicing relation to the pass-based oracle: for every write criterion
// of the corpus, each single-criterion algorithm on the BFS engine
// returns the node set, JumpsAdded, JumpRules and Traversals it
// returns when every closure is normalized by the oracle instead.
func TestPropertyRelationClosureMatchesPasses(t *testing.T) {
	algos := []*algorithm{conventional, figure7, figure7LST, figure12, figure13}
	cases, grew := 0, 0
	for i, p := range oracleCorpus(t, 40) {
		a, err := Analyze(p)
		if err != nil {
			t.Fatalf("program %d: analyze: %v", i, err)
		}
		oracle := passEngine{a}
		for _, wc := range progen.WriteCriteria(p) {
			c := Criterion{Var: wc.Var, Line: wc.Line}
			for _, al := range algos {
				want, werr := a.slice(c, al, oracle)
				got, gerr := a.slice(c, al, a.engine())
				if werr != nil || gerr != nil {
					if errors.Is(werr, ErrUnstructured) && errors.Is(gerr, ErrUnstructured) {
						continue
					}
					t.Fatalf("program %d %s %s: oracle err %v, relation err %v", i, c, al.name, werr, gerr)
				}
				cases++
				if !got.Nodes.Equal(want.Nodes) {
					t.Errorf("program %d %s %s: relation nodes %v, oracle %v", i, c, al.name, got.Nodes, want.Nodes)
				}
				if !reflect.DeepEqual(got.JumpsAdded, want.JumpsAdded) {
					t.Errorf("program %d %s %s: relation jumps %v, oracle %v", i, c, al.name, got.JumpsAdded, want.JumpsAdded)
				}
				if !reflect.DeepEqual(got.JumpRules, want.JumpRules) {
					t.Errorf("program %d %s %s: relation rules %v, oracle %v", i, c, al.name, got.JumpRules, want.JumpRules)
				}
				if got.Traversals != want.Traversals {
					t.Errorf("program %d %s %s: relation traversals %d, oracle %d", i, c, al.name, got.Traversals, want.Traversals)
				}
				if al == conventional {
					raw := a.PDG.BackwardClosure(mustSeeds(t, a, c))
					raw.Add(a.CFG.Entry.ID)
					if !raw.Equal(got.Nodes) {
						grew++
					}
				}
			}
		}
	}
	if cases < 1000 {
		t.Fatalf("only %d cases exercised; generator drift?", cases)
	}
	// The invariants must actually fire on this corpus, or the
	// comparison above proves nothing about them.
	if grew < 20 {
		t.Fatalf("normalization grew only %d conventional slices; corpus no longer exercises it", grew)
	}
}

// TestPropertyNormalizeSliceMatchesPasses pins the exported
// NormalizeSlice, which the baselines and the dynamic slicer call on
// sets of their own making, to the oracle. The sets are the raw
// dependence closures of the criteria and random node subsets, which
// need not be dependence-closed (Weiser's dataflow slice is not).
func TestPropertyNormalizeSliceMatchesPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := 0
	for i, p := range oracleCorpus(t, 20) {
		a, err := Analyze(p)
		if err != nil {
			t.Fatalf("program %d: analyze: %v", i, err)
		}
		n := a.CFG.NumNodes()
		var bases []*bits.Set
		for _, wc := range progen.WriteCriteria(p) {
			bases = append(bases, a.PDG.BackwardClosure(mustSeeds(t, a, Criterion{Var: wc.Var, Line: wc.Line})))
		}
		for k := 0; k < 4; k++ {
			set := bits.New(n)
			for v := 0; v < n; v++ {
				if rng.Intn(8) == 0 {
					set.Add(v)
				}
			}
			bases = append(bases, set)
		}
		for j, base := range bases {
			want, got := base.Clone(), base.Clone()
			passNormalize(a, want)
			if err := a.NormalizeSlice(got); err != nil {
				t.Fatal(err)
			}
			cases++
			if !got.Equal(want) {
				t.Errorf("program %d set %d: NormalizeSlice %v, oracle %v", i, j, got, want)
			}
		}
	}
	if cases < 200 {
		t.Fatalf("only %d cases exercised", cases)
	}
}

func mustSeeds(t *testing.T, a *Analysis, c Criterion) []int {
	t.Helper()
	seeds, err := a.resolveCriterion(c)
	if err != nil {
		t.Fatal(err)
	}
	return seeds
}
