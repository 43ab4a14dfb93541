package pdg

import (
	"reflect"
	"testing"

	"jumpslice/internal/bits"
	"jumpslice/internal/cdg"
	"jumpslice/internal/cfg"
	"jumpslice/internal/dataflow"
	"jumpslice/internal/dom"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
)

func build(t *testing.T, src string) (*cfg.Graph, *Graph) {
	t.Helper()
	g, err := cfg.Build(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	pdt := dom.PostDominators(g, g.Exit.ID)
	cd := cdg.Build(g, pdt)
	rd := dataflow.Reach(g)
	return g, Build(g, cd, rd)
}

func lines(g *cfg.Graph, ids []int) []int {
	var out []int
	for _, id := range ids {
		out = append(out, g.Nodes[id].Line)
	}
	return out
}

// TestFigure2ProgramDependenceGraph verifies the merge on the paper's
// Figure 1-a: node 12's PDG deps are its data deps {2, 7} plus its
// control dep (entry, line 0).
func TestFigure2ProgramDependenceGraph(t *testing.T) {
	g, p := build(t, paper.Fig1().Source)
	n12 := g.NodesAtLine(12)[0]
	if got := lines(g, p.DataDeps(n12.ID)); !reflect.DeepEqual(got, []int{2, 7}) {
		t.Errorf("data deps of 12 = %v, want [2 7]", got)
	}
	if got := lines(g, p.ControlDeps(n12.ID)); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("control deps of 12 = %v, want [0] (entry)", got)
	}
	if got := lines(g, p.Deps(n12.ID)); !reflect.DeepEqual(got, []int{0, 2, 7}) {
		t.Errorf("merged deps of 12 = %v, want [0 2 7]", got)
	}
}

// TestFigure2BackwardClosure reproduces the shaded nodes of Figure
// 2-d: the transitive closure from node 12 selects lines 2,3,4,5,7
// (plus entry).
func TestFigure2BackwardClosure(t *testing.T) {
	g, p := build(t, paper.Fig1().Source)
	n12 := g.NodesAtLine(12)[0]
	set := p.BackwardClosure([]int{n12.ID})
	wantLines := map[int]bool{0: true, 2: true, 3: true, 4: true, 5: true, 7: true, 12: true}
	set.ForEach(func(id int) {
		if !wantLines[g.Nodes[id].Line] {
			t.Errorf("unexpected node %v in closure", g.Nodes[id])
		}
	})
	for l := range wantLines {
		found := false
		set.ForEach(func(id int) {
			if g.Nodes[id].Line == l {
				found = true
			}
		})
		if !found {
			t.Errorf("closure missing line %d", l)
		}
	}
}

func TestBackwardClosureMultipleSeeds(t *testing.T) {
	g, p := build(t, "a = 1;\nb = 2;\nwrite(a);\nwrite(b);")
	s3 := g.NodesAtLine(3)[0]
	s4 := g.NodesAtLine(4)[0]
	set := p.BackwardClosure([]int{s3.ID, s4.ID})
	for _, l := range []int{1, 2, 3, 4} {
		n := g.NodesAtLine(l)[0]
		if !set.Has(n.ID) {
			t.Errorf("closure missing line %d", l)
		}
	}
}

func TestGrowClosureIncremental(t *testing.T) {
	g, p := build(t, "a = 1;\nb = a;\nc = 5;\nwrite(b);\nwrite(c);")
	w4 := g.NodesAtLine(4)[0]
	set := p.BackwardClosure([]int{w4.ID})
	c3 := g.NodesAtLine(3)[0]
	if set.Has(c3.ID) {
		t.Fatal("c = 5 should not be in the initial closure")
	}
	w5 := g.NodesAtLine(5)[0]
	if !p.GrowClosure(set, w5.ID) {
		t.Error("GrowClosure should report change")
	}
	if !set.Has(c3.ID) {
		t.Error("growing from write(c) should add c = 5")
	}
	if p.GrowClosure(set, w5.ID) {
		t.Error("second GrowClosure should be a no-op")
	}
}

// TestGrowFollowsExtraTables checks that Grow walks a per-node edge
// table like a dependence, transitively, and that Row lists the same
// edge after the node's dependences.
func TestGrowFollowsExtraTables(t *testing.T) {
	g, p := build(t, "a = 1;\nb = 2;\nc = b;\nwrite(a);")
	id := func(line int) int { return g.NodesAtLine(line)[0].ID }
	extra := make([]int, len(g.Nodes))
	for i := range extra {
		extra[i] = -1
	}
	extra[id(1)] = id(3) // a = 1 brings c = b, which depends on b = 2
	set := p.BackwardClosure([]int{id(4)})
	if set.Has(id(3)) {
		t.Fatal("c = b in the plain closure of write(a)")
	}
	set = bits.New(len(g.Nodes))
	if changed, err := p.Grow(set, []int{id(4)}, nil, extra); !changed || err != nil {
		t.Fatalf("Grow = %v, %v", changed, err)
	}
	for _, l := range []int{1, 2, 3, 4} {
		if !set.Has(id(l)) {
			t.Errorf("closure over the extra table misses line %d", l)
		}
	}
	if changed, _ := p.Grow(set, []int{id(1)}, nil, extra); changed {
		t.Error("growing a closed set by a member changed it")
	}
	if row := p.Row(id(1), extra); len(row) == 0 || row[len(row)-1] != id(3) {
		t.Errorf("Row(a = 1) = %v, want the extra edge to %d last", row, id(3))
	}
	if row := p.Row(id(3), extra); !equalInts(row, p.Deps(id(3))) {
		t.Errorf("Row(c = b) = %v, want its dependences %v", row, p.Deps(id(3)))
	}
}

func TestClosureFollowsControlThenData(t *testing.T) {
	// write(y) -> y=1 (data) -> if(x>0) (control) -> read(x) (data).
	g, p := build(t, "read(x);\nif (x > 0)\ny = 1;\nwrite(y);")
	w := g.NodesAtLine(4)[0]
	set := p.BackwardClosure([]int{w.ID})
	for _, l := range []int{1, 2, 3, 4} {
		if !set.Has(g.NodesAtLine(l)[0].ID) {
			t.Errorf("closure missing line %d", l)
		}
	}
}

func TestJumpNodesHaveOnlyControlDeps(t *testing.T) {
	g, p := build(t, paper.Fig5().Source)
	for _, j := range g.Jumps() {
		if len(p.DataDeps(j.ID)) != 0 {
			t.Errorf("jump %v has data deps %v", j, p.DataDeps(j.ID))
		}
	}
}

func TestReturnValueHasDataDeps(t *testing.T) {
	// return e is the one jump with data dependences.
	g, p := build(t, "x = 1;\nreturn x + 1;")
	ret := g.NodesAtLine(2)[0]
	if got := lines(g, p.DataDeps(ret.ID)); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("return deps = %v, want [1]", got)
	}
}
