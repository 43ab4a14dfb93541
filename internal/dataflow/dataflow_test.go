package dataflow

import (
	"reflect"
	"testing"

	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
)

func build(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	g, err := cfg.Build(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// depLines maps a node's data dependences to source lines.
func depLines(g *cfg.Graph, deps [][]int, id int) []int {
	var out []int
	for _, d := range deps[id] {
		out = append(out, g.Nodes[d].Line)
	}
	return out
}

// TestFigure2DataDependence checks the data dependence graph of the
// paper's Figure 1-a against Figure 2-b: node 12 is data dependent on
// nodes 2 and 7 ("the assignments on lines 2 and 7 assign a value to
// positives that may be used by the write statement on line 12").
func TestFigure2DataDependence(t *testing.T) {
	g := build(t, paper.Fig1().Source)
	deps := Reach(g).DataDeps()
	want := map[int][]int{
		5:  {4},              // if (x <= 0) uses read(x)
		6:  {1, 4, 6, 9, 10}, // sum = sum + f1(x)
		7:  {2, 7},           // positives = positives + 1
		8:  {4},              // if (x % 2 == 0)
		11: {1, 6, 9, 10},
		12: {2, 7},
	}
	for line, wantLines := range want {
		n := g.NodesAtLine(line)[0]
		if got := depLines(g, deps, n.ID); !reflect.DeepEqual(got, wantLines) {
			t.Errorf("line %d data deps = %v, want %v", line, got, wantLines)
		}
	}
}

func TestReachStraightLineKill(t *testing.T) {
	g := build(t, "x = 1;\nx = 2;\nwrite(x);")
	r := Reach(g)
	w := g.NodesAtLine(3)[0]
	got := r.ReachingDefsOf(w.ID, "x")
	if len(got) != 1 || g.Nodes[got[0]].Line != 2 {
		t.Errorf("reaching defs of x at write = %v, want only line 2", got)
	}
}

func TestReachBranchesMerge(t *testing.T) {
	g := build(t, "if (c)\nx = 1;\nelse x = 2;\nwrite(x);")
	r := Reach(g)
	w := g.NodesAtLine(4)[0]
	got := r.ReachingDefsOf(w.ID, "x")
	var lines []int
	for _, id := range got {
		lines = append(lines, g.Nodes[id].Line)
	}
	if !reflect.DeepEqual(lines, []int{2, 3}) {
		t.Errorf("reaching defs = %v, want lines [2 3]", lines)
	}
}

func TestReachLoopCarried(t *testing.T) {
	g := build(t, "s = 0;\nwhile (c()) {\ns = s + 1;\n}\nwrite(s);")
	r := Reach(g)
	body := g.NodesAtLine(3)[0]
	// s = s + 1 uses defs from line 1 (first iteration) and line 3
	// (subsequent iterations).
	got := r.ReachingDefsOf(body.ID, "s")
	var lines []int
	for _, id := range got {
		lines = append(lines, g.Nodes[id].Line)
	}
	if !reflect.DeepEqual(lines, []int{1, 3}) {
		t.Errorf("loop-carried reaching defs = %v, want lines [1 3]", lines)
	}
}

func TestReadDefines(t *testing.T) {
	g := build(t, "x = 1;\nread(x);\nwrite(x);")
	r := Reach(g)
	w := g.NodesAtLine(3)[0]
	got := r.ReachingDefsOf(w.ID, "x")
	if len(got) != 1 || g.Nodes[got[0]].Line != 2 {
		t.Errorf("read should kill the earlier assignment; got %v", got)
	}
}

func TestJumpStatementsDefineNothing(t *testing.T) {
	// The paper's premise: "A jump statement does not assign a value
	// to any variable. Thus no statement may be data dependent on it."
	g := build(t, paper.Fig8().Source)
	r := Reach(g)
	for _, d := range r.Defs {
		if g.Nodes[d.Node].Kind.IsJump() {
			t.Errorf("jump node %v recorded as defining %q", g.Nodes[d.Node], d.Var)
		}
	}
	deps := r.DataDeps()
	for _, n := range g.Nodes {
		for _, d := range deps[n.ID] {
			if g.Nodes[d].Kind.IsJump() {
				t.Errorf("node %v is data dependent on jump %v", n, g.Nodes[d])
			}
		}
	}
}

func TestUninitializedUseHasNoDeps(t *testing.T) {
	g := build(t, "write(x);")
	deps := Reach(g).DataDeps()
	w := g.NodesAtLine(1)[0]
	if len(deps[w.ID]) != 0 {
		t.Errorf("uninitialized use should have no data deps, got %v", deps[w.ID])
	}
}

func TestGotoSkipsDefinition(t *testing.T) {
	g := build(t, `x = 1;
goto L;
x = 2;
L: write(x);`)
	r := Reach(g)
	w := g.NodesAtLine(4)[0]
	got := r.ReachingDefsOf(w.ID, "x")
	if len(got) != 1 || g.Nodes[got[0]].Line != 1 {
		t.Errorf("write should only see x=1 (x=2 is dead code); got %v", got)
	}
}
