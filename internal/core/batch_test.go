package core

import (
	"reflect"
	"testing"

	"jumpslice/internal/bits"
	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// seedRepairJumps is the seed implementation of the Figure 7 loop,
// kept verbatim as a reference: a full postdominator-tree preorder
// scan per traversal, filtering non-jumps and dead nodes on the fly,
// with BFS dependence closures. The production repairJumps now runs
// over the precomputed live-jump worklist with pluggable closure
// engines; the tests below pin it to this reference — same final set,
// same traversal count, same jump-addition order.
func seedRepairJumps(a *Analysis, set *bits.Set) (jumpsAdded []int, traversals int) {
	order := a.PDT.Preorder()
	for {
		traversals++
		changed := false
		for _, v := range order {
			n := a.CFG.Nodes[v]
			if !n.Kind.IsJump() || set.Has(v) || !a.live[v] {
				continue
			}
			if a.nearestPostdomInSlice(v, set) == a.nearestLexInSlice(v, set) {
				continue
			}
			a.PDG.GrowClosure(set, v)
			if err := passNormalize(a, set, bfsEngine{p: a.PDG}); err != nil {
				panic(err)
			}
			jumpsAdded = append(jumpsAdded, v)
			changed = true
		}
		if !changed {
			return jumpsAdded, traversals
		}
	}
}

// batchCases runs fn over both progen corpora with the given seed
// count, handing it each analysis with its write criteria.
func batchCases(t *testing.T, seeds int, fn func(t *testing.T, corpus string, seed int64, a *Analysis, crits []Criterion)) {
	t.Helper()
	corpora := []struct {
		name string
		gen  func(progen.Config) *lang.Program
	}{
		{"structured", progen.Structured},
		{"unstructured", progen.Unstructured},
	}
	for _, corpus := range corpora {
		for seed := int64(0); seed < int64(seeds); seed++ {
			p := corpus.gen(progen.Config{Seed: seed, Stmts: 30})
			a, err := Analyze(p)
			if err != nil {
				t.Fatalf("%s seed %d: analyze: %v", corpus.name, seed, err)
			}
			var crits []Criterion
			for _, wc := range progen.WriteCriteria(p) {
				crits = append(crits, Criterion{Var: wc.Var, Line: wc.Line})
			}
			if len(crits) == 0 {
				continue
			}
			fn(t, corpus.name, seed, a, crits)
		}
	}
}

// TestPropertySliceAllEqualsAgrawal asserts the batch API returns,
// for every criterion, exactly the per-criterion Agrawal result:
// identical node sets, traversal counts, jump-addition order and
// label retargeting — the acceptance property of the condensation
// engine.
func TestPropertySliceAllEqualsAgrawal(t *testing.T) {
	const seeds = 120
	cases := 0
	batchCases(t, seeds, func(t *testing.T, corpus string, seed int64, a *Analysis, crits []Criterion) {
		batch, err := a.SliceAll(crits)
		if err != nil {
			t.Fatalf("%s seed %d: SliceAll: %v", corpus, seed, err)
		}
		for i, c := range crits {
			want, err := a.Agrawal(c)
			if err != nil {
				t.Fatalf("%s seed %d %s: Agrawal: %v", corpus, seed, c, err)
			}
			got := batch[i]
			cases++
			if !got.Nodes.Equal(want.Nodes) {
				t.Errorf("%s seed %d %s: SliceAll nodes %v, Agrawal %v", corpus, seed, c, got.Nodes, want.Nodes)
			}
			if got.Traversals != want.Traversals {
				t.Errorf("%s seed %d %s: SliceAll traversals %d, Agrawal %d", corpus, seed, c, got.Traversals, want.Traversals)
			}
			if !reflect.DeepEqual(got.JumpsAdded, want.JumpsAdded) {
				t.Errorf("%s seed %d %s: SliceAll jumps %v, Agrawal %v", corpus, seed, c, got.JumpsAdded, want.JumpsAdded)
			}
			if !reflect.DeepEqual(got.Relabeled, want.Relabeled) {
				t.Errorf("%s seed %d %s: SliceAll relabeled %v, Agrawal %v", corpus, seed, c, got.Relabeled, want.Relabeled)
			}
		}
	})
	if cases < 2*seeds {
		t.Fatalf("only %d cases exercised; generator drift?", cases)
	}
}

// TestPropertyWorklistMatchesSeedRepair asserts the precomputed
// jump-worklist traversal reproduces the seed implementation exactly:
// same final set, same Traversals, same JumpsAdded order — on both
// corpora, under both closure engines.
func TestPropertyWorklistMatchesSeedRepair(t *testing.T) {
	const seeds = 120
	batchCases(t, seeds, func(t *testing.T, corpus string, seed int64, a *Analysis, crits []Criterion) {
		for _, c := range crits {
			conv, err := a.Conventional(c)
			if err != nil {
				t.Fatalf("%s seed %d %s: conventional: %v", corpus, seed, c, err)
			}
			refSet := conv.Nodes.Clone()
			refJumps, refTraversals := seedRepairJumps(a, refSet)
			for _, eng := range []struct {
				name string
				e    depEngine
			}{{"bfs", a.engine()}, {"condensation", a.batchEngine()}} {
				set := conv.Nodes.Clone()
				jumps, _, traversals, err := a.repairJumps(set, a.jumpsPDT, eng.e)
				if err != nil {
					t.Fatalf("%s seed %d %s [%s]: repairJumps: %v", corpus, seed, c, eng.name, err)
				}
				if !set.Equal(refSet) {
					t.Errorf("%s seed %d %s [%s]: worklist set %v, seed impl %v", corpus, seed, c, eng.name, set, refSet)
				}
				if traversals != refTraversals {
					t.Errorf("%s seed %d %s [%s]: worklist traversals %d, seed impl %d", corpus, seed, c, eng.name, traversals, refTraversals)
				}
				if !reflect.DeepEqual(jumps, refJumps) {
					t.Errorf("%s seed %d %s [%s]: worklist jumps %v, seed impl %v", corpus, seed, c, eng.name, jumps, refJumps)
				}
			}
		}
	})
}
