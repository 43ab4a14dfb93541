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

// passNormalize is the pass-based normalization normalizeSlice
// replaced, kept as the property tests' oracle: after every closure it
// rescans every conditional-jump pair and every switch-enclosed node,
// growing each violated invariant's target, until a pass adds
// nothing.
func passNormalize(a *Analysis, set *bits.Set, eng depEngine) error {
	for {
		changed, err := condJumpAdaptationOnce(a, set, eng)
		if err != nil {
			return err
		}
		swChanged, err := enforceSwitchEnclosureOnce(a, set, eng)
		if err != nil {
			return err
		}
		if !changed && !swChanged {
			return nil
		}
	}
}

// condJumpAdaptationOnce performs one pass of invariant 1, reporting
// whether anything was added.
func condJumpAdaptationOnce(a *Analysis, set *bits.Set, eng depEngine) (bool, error) {
	changed := false
	for _, cj := range a.condJumps {
		if set.Has(cj.pred) && !set.Has(cj.jump) {
			if _, err := eng.grow(set, cj.jump, nil); err != nil {
				return false, err
			}
			changed = true
		}
	}
	return changed, nil
}

// enforceSwitchEnclosureOnce performs one pass of invariant 2,
// reporting whether anything was added.
func enforceSwitchEnclosureOnce(a *Analysis, set *bits.Set, eng depEngine) (bool, error) {
	changed := false
	for _, id := range a.switchNodes {
		if !set.Has(id) {
			continue
		}
		if sw := a.enclosingSwitch[id]; !set.Has(sw) {
			if _, err := eng.grow(set, sw, nil); err != nil {
				return false, err
			}
			changed = true
		}
	}
	return changed, nil
}

// passEngine runs every algorithm of this package on the oracle: it
// is the BFS engine with the pass-based normalization folded into each
// closure, and it reports its closures as normalized so the
// production worklist never runs. Every closure the algorithms take
// is followed by a normalization in both formulations (the Entry node
// conventionalWith adds afterwards takes part in no invariant), so the
// two must agree step for step.
type passEngine struct {
	a   *Analysis
	bfs bfsEngine
}

func (e passEngine) closuresNormalized() bool { return true }

func (e passEngine) backwardClosure(seeds []int) (*bits.Set, error) {
	set, err := e.bfs.backwardClosure(seeds)
	if err != nil {
		return nil, err
	}
	return set, passNormalize(e.a, set, e.bfs)
}

func (e passEngine) grow(set *bits.Set, seed int, added []int) ([]int, error) {
	if _, err := e.bfs.grow(set, seed, nil); err != nil {
		return added, err
	}
	return added, passNormalize(e.a, set, e.bfs)
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

// TestPropertyWorklistNormalizeMatchesPasses pins the worklist
// normalization to the pass-based oracle: for every write criterion of
// the corpus, each single-criterion algorithm on the BFS engine
// returns the node set, JumpsAdded, JumpRules and Traversals it
// returns when every closure is normalized by the oracle instead.
func TestPropertyWorklistNormalizeMatchesPasses(t *testing.T) {
	type algo struct {
		name string
		run  func(a *Analysis, c Criterion, eng depEngine) (*Slice, error)
	}
	algos := []algo{
		{"conventional", (*Analysis).conventionalWith},
		{"agrawal", (*Analysis).agrawalWith},
		{"agrawal-lst", (*Analysis).agrawalLSTWith},
		{"structured", (*Analysis).structuredWith},
		{"conservative", (*Analysis).conservativeWith},
	}
	cases, grew := 0, 0
	for i, p := range oracleCorpus(t, 40) {
		a, err := Analyze(p)
		if err != nil {
			t.Fatalf("program %d: analyze: %v", i, err)
		}
		oracle := passEngine{a, bfsEngine{p: a.PDG}}
		for _, wc := range progen.WriteCriteria(p) {
			c := Criterion{Var: wc.Var, Line: wc.Line}
			for _, al := range algos {
				want, werr := al.run(a, c, oracle)
				got, gerr := al.run(a, c, a.engine())
				if werr != nil || gerr != nil {
					if errors.Is(werr, ErrUnstructured) && errors.Is(gerr, ErrUnstructured) {
						continue
					}
					t.Fatalf("program %d %s %s: oracle err %v, worklist err %v", i, c, al.name, werr, gerr)
				}
				cases++
				if !got.Nodes.Equal(want.Nodes) {
					t.Errorf("program %d %s %s: worklist nodes %v, oracle %v", i, c, al.name, got.Nodes, want.Nodes)
				}
				if !reflect.DeepEqual(got.JumpsAdded, want.JumpsAdded) {
					t.Errorf("program %d %s %s: worklist jumps %v, oracle %v", i, c, al.name, got.JumpsAdded, want.JumpsAdded)
				}
				if !reflect.DeepEqual(got.JumpRules, want.JumpRules) {
					t.Errorf("program %d %s %s: worklist rules %v, oracle %v", i, c, al.name, got.JumpRules, want.JumpRules)
				}
				if got.Traversals != want.Traversals {
					t.Errorf("program %d %s %s: worklist traversals %d, oracle %d", i, c, al.name, got.Traversals, want.Traversals)
				}
				if al.name == "conventional" {
					raw, err := a.PDG.BackwardClosureCancel(mustSeeds(t, a, c), nil)
					if err != nil {
						t.Fatal(err)
					}
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
			raw, err := a.PDG.BackwardClosureCancel(mustSeeds(t, a, Criterion{Var: wc.Var, Line: wc.Line}), nil)
			if err != nil {
				t.Fatal(err)
			}
			bases = append(bases, raw)
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
			if err := passNormalize(a, want, bfsEngine{p: a.PDG}); err != nil {
				t.Fatal(err)
			}
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
