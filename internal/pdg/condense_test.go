package pdg

import (
	"testing"

	"jumpslice/internal/bits"
	"jumpslice/internal/paper"
)

// condense condenses p's dependence rows.
func condense(p *Graph) *Condensation {
	adj := make([][]int, len(p.CFG.Nodes))
	for n := range adj {
		adj[n] = p.Deps(n)
	}
	return Condense(adj)
}

// closure returns the condensed closure of the seeds as a fresh set.
func closure(c *Condensation, seeds ...int) *bits.Set {
	out := bits.New(len(c.comp))
	c.Grow(out, seeds, nil, nil)
	return out
}

// TestCondensationMatchesBFSOnFigures cross-checks the memoized
// component closures against the per-node BFS on every paper figure:
// for every node's closure and every consecutive node pair's, the
// condensed Grow must equal the BFS BackwardClosure.
func TestCondensationMatchesBFSOnFigures(t *testing.T) {
	for _, f := range paper.All() {
		g, p := build(t, f.Source)
		c := condense(p)
		for id := range g.Nodes {
			want := p.BackwardClosure([]int{id})
			if got := closure(c, id); !got.Equal(want) {
				t.Errorf("%s: condensed closure of %d = %v, want %v", f.Name, id, got, want)
			}
		}
		// Multi-seed union over every consecutive node pair.
		for id := 1; id < len(g.Nodes); id++ {
			seeds := []int{id - 1, id}
			want := p.BackwardClosure(seeds)
			if got := closure(c, seeds...); !got.Equal(want) {
				t.Errorf("%s: condensed closure of %v differs", f.Name, seeds)
			}
		}
	}
}

// TestCondensationGrowMatchesBFS checks Grow against GrowClosure,
// including the changed report, growing each figure's closure node by
// node both ways.
func TestCondensationGrowMatchesBFS(t *testing.T) {
	for _, f := range paper.All() {
		g, p := build(t, f.Source)
		c := condense(p)
		bfs := p.BackwardClosure([]int{g.Entry.ID})
		cond := bfs.Clone()
		for id := range g.Nodes {
			wantChanged := p.GrowClosure(bfs, id)
			gotChanged, _ := c.Grow(cond, []int{id}, nil, nil)
			if gotChanged != wantChanged {
				t.Errorf("%s: Grow(%d) changed = %v, want %v", f.Name, id, gotChanged, wantChanged)
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
		c := condense(p)
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

// TestCondensationCycle exercises a dependence cycle (loop-carried
// data dependence plus control self-dependence of a while header):
// all cycle members must share a component and a closure.
func TestCondensationCycle(t *testing.T) {
	g, p := build(t, "read(n);\nwhile (n > 0)\nn = n - 1;\nwrite(n);")
	c := condense(p)
	hdr := g.NodesAtLine(2)[0]
	dec := g.NodesAtLine(3)[0]
	if c.comp[hdr.ID] != c.comp[dec.ID] {
		t.Errorf("loop header and body in different components (%d vs %d)",
			c.comp[hdr.ID], c.comp[dec.ID])
	}
	if !closure(c, hdr.ID).Equal(closure(c, dec.ID)) {
		t.Error("cycle members have different closures")
	}
}
