package pdg

import (
	"testing"

	"jumpslice/internal/paper"
)

// TestCondensationMatchesBFSOnFigures cross-checks the memoized
// component closures against the per-node BFS on every paper figure:
// for every node, ClosureOf must equal BackwardClosure, and the
// multi-seed and grow variants must agree too.
func TestCondensationMatchesBFSOnFigures(t *testing.T) {
	for _, f := range paper.All() {
		g, p := build(t, f.Source)
		c := p.Condensation()
		for id := range g.Nodes {
			want := p.BackwardClosure([]int{id})
			if got := c.ClosureOf(id); !got.Equal(want) {
				t.Errorf("%s: ClosureOf(%d) = %v, want %v", f.Name, id, got, want)
			}
			if got := c.BackwardClosure([]int{id}); !got.Equal(want) {
				t.Errorf("%s: condensed BackwardClosure(%d) = %v, want %v", f.Name, id, got, want)
			}
		}
		// Multi-seed union over every consecutive node pair.
		for id := 1; id < len(g.Nodes); id++ {
			seeds := []int{id - 1, id}
			want := p.BackwardClosure(seeds)
			if got := c.BackwardClosure(seeds); !got.Equal(want) {
				t.Errorf("%s: condensed closure of %v differs", f.Name, seeds)
			}
		}
	}
}

// TestCondensationGrowMatchesBFS checks GrowClosure equivalence,
// including the changed report, growing each figure's closure node by
// node both ways.
func TestCondensationGrowMatchesBFS(t *testing.T) {
	for _, f := range paper.All() {
		g, p := build(t, f.Source)
		c := p.Condensation()
		bfs := p.BackwardClosure([]int{g.Entry.ID})
		cond := bfs.Clone()
		for id := range g.Nodes {
			wantChanged := p.GrowClosure(bfs, id)
			gotChanged := c.GrowClosure(cond, id)
			if gotChanged != wantChanged {
				t.Errorf("%s: GrowClosure(%d) changed = %v, want %v", f.Name, id, gotChanged, wantChanged)
			}
			if !cond.Equal(bfs) {
				t.Fatalf("%s: sets diverge after growing %d: %v vs %v", f.Name, id, cond, bfs)
			}
		}
	}
}

// TestCondensationTopologicalOrder asserts the invariant ensure relies
// on: every component a node depends on has a smaller index.
func TestCondensationTopologicalOrder(t *testing.T) {
	for _, f := range paper.All() {
		g, p := build(t, f.Source)
		c := p.Condensation()
		total := 0
		for cid, members := range c.comps {
			total += len(members)
			for _, v := range members {
				if c.comp[v] != cid {
					t.Errorf("%s: comp[%d] = %d, member of %d", f.Name, v, c.comp[v], cid)
				}
			}
			for _, d := range c.succs(cid) {
				if d >= cid {
					t.Errorf("%s: component %d depends on %d (not topological)", f.Name, cid, d)
				}
			}
		}
		if total != len(g.Nodes) {
			t.Errorf("%s: components cover %d nodes, want %d", f.Name, total, len(g.Nodes))
		}
	}
}

// TestCondensationCachedOnGraph asserts repeated Condensation calls
// return the same instance (the cross-criteria cache).
func TestCondensationCachedOnGraph(t *testing.T) {
	_, p := build(t, paper.Fig3().Source)
	if p.Condensation() != p.Condensation() {
		t.Error("Condensation not cached on the Graph")
	}
}

// TestCondensationCycle exercises a dependence cycle (loop-carried
// data dependence plus control self-dependence of a while header):
// all cycle members must share a component and a closure.
func TestCondensationCycle(t *testing.T) {
	g, p := build(t, "read(n);\nwhile (n > 0)\nn = n - 1;\nwrite(n);")
	c := p.Condensation()
	hdr := g.NodesAtLine(2)[0]
	dec := g.NodesAtLine(3)[0]
	if c.Component(hdr.ID) != c.Component(dec.ID) {
		t.Errorf("loop header and body in different components (%d vs %d)",
			c.Component(hdr.ID), c.Component(dec.ID))
	}
	if !c.ClosureOf(hdr.ID).Equal(c.ClosureOf(dec.ID)) {
		t.Error("cycle members have different closures")
	}
}
