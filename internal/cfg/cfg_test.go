package cfg

import (
	"sort"
	"testing"

	"jumpslice/internal/lang"
)

// succLines returns the sorted source lines of n's successors; Entry
// is -1 and Exit is 0 in the result for readability.
func succLines(g *Graph, n *Node) []int {
	var out []int
	for _, e := range n.Out {
		to := g.Nodes[e.To]
		switch to.Kind {
		case KindEntry:
			out = append(out, -1)
		case KindExit:
			out = append(out, 0)
		default:
			out = append(out, to.Line)
		}
	}
	sort.Ints(out)
	return out
}

// nodeAt returns the single node at the line, failing the test on
// ambiguity or absence.
func nodeAt(t *testing.T, g *Graph, line int) *Node {
	t.Helper()
	ns := g.NodesAtLine(line)
	if len(ns) != 1 {
		t.Fatalf("line %d has %d nodes, want 1", line, len(ns))
	}
	return ns[0]
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBuildStraightLine(t *testing.T) {
	g := MustBuild(lang.MustParse("a = 1;\nb = a;\nwrite(b);"))
	// Entry, Exit + 3 statements.
	if len(g.Nodes) != 5 {
		t.Fatalf("node count = %d, want 5", len(g.Nodes))
	}
	if got := succLines(g, g.Entry); !eqInts(got, []int{0, 1}) {
		t.Errorf("entry succs = %v, want [0 1] (virtual exit edge + line 1)", got)
	}
	if got := succLines(g, nodeAt(t, g, 1)); !eqInts(got, []int{2}) {
		t.Errorf("line 1 succs = %v, want [2]", got)
	}
	if got := succLines(g, nodeAt(t, g, 3)); !eqInts(got, []int{0}) {
		t.Errorf("line 3 succs = %v, want [exit]", got)
	}
}

func TestBuildIfElse(t *testing.T) {
	g := MustBuild(lang.MustParse("if (x > 0)\ny = 1;\nelse y = 2;\nwrite(y);"))
	p := nodeAt(t, g, 1)
	if p.Kind != KindPredicate {
		t.Fatalf("line 1 kind = %v, want predicate", p.Kind)
	}
	if got := succLines(g, p); !eqInts(got, []int{2, 3}) {
		t.Errorf("predicate succs = %v, want [2 3]", got)
	}
	// Check the true/false labels.
	labels := map[int]string{}
	for _, e := range p.Out {
		labels[g.Nodes[e.To].Line] = e.Label
	}
	if labels[2] != "T" || labels[3] != "F" {
		t.Errorf("edge labels = %v, want 2:T 3:F", labels)
	}
	for _, line := range []int{2, 3} {
		if got := succLines(g, nodeAt(t, g, line)); !eqInts(got, []int{4}) {
			t.Errorf("line %d succs = %v, want [4]", line, got)
		}
	}
}

func TestBuildIfWithoutElse(t *testing.T) {
	g := MustBuild(lang.MustParse("if (x)\ny = 1;\nwrite(y);"))
	p := nodeAt(t, g, 1)
	if got := succLines(g, p); !eqInts(got, []int{2, 3}) {
		t.Errorf("predicate succs = %v, want [2 3] (then, fallthrough)", got)
	}
}

func TestBuildWhile(t *testing.T) {
	g := MustBuild(lang.MustParse("while (x > 0) {\nx = x - 1;\n}\nwrite(x);"))
	p := nodeAt(t, g, 1)
	if got := succLines(g, p); !eqInts(got, []int{2, 4}) {
		t.Errorf("while succs = %v, want [2 4]", got)
	}
	// Back edge from body to predicate.
	if got := succLines(g, nodeAt(t, g, 2)); !eqInts(got, []int{1}) {
		t.Errorf("body succs = %v, want [1]", got)
	}
}

func TestBuildBreakContinue(t *testing.T) {
	g := MustBuild(lang.MustParse(`while (1) {
if (a) break;
if (b) continue;
c = 1;
}
write(c);`))
	var brkNode, contNode *Node
	for _, n := range g.Nodes {
		switch n.Kind {
		case KindBreak:
			brkNode = n
		case KindContinue:
			contNode = n
		}
	}
	if brkNode == nil || contNode == nil {
		t.Fatal("missing break or continue node")
	}
	if got := succLines(g, brkNode); !eqInts(got, []int{6}) {
		t.Errorf("break succs = %v, want [6] (after loop)", got)
	}
	if brkNode.Target == nil || brkNode.Target.Line != 6 {
		t.Errorf("break target = %v, want node at line 6", brkNode.Target)
	}
	if got := succLines(g, contNode); !eqInts(got, []int{1}) {
		t.Errorf("continue succs = %v, want [1] (loop predicate)", got)
	}
	if contNode.Target == nil || contNode.Target.Line != 1 {
		t.Errorf("continue target = %v, want loop predicate", contNode.Target)
	}
}

func TestBuildReturn(t *testing.T) {
	g := MustBuild(lang.MustParse("if (x) return;\nwrite(x);"))
	var ret *Node
	for _, n := range g.Nodes {
		if n.Kind == KindReturn {
			ret = n
		}
	}
	if ret == nil {
		t.Fatal("no return node")
	}
	if got := succLines(g, ret); !eqInts(got, []int{0}) {
		t.Errorf("return succs = %v, want [exit]", got)
	}
	if ret.Target != g.Exit {
		t.Error("return target should be Exit")
	}
}

func TestBuildGotoForwardAndBackward(t *testing.T) {
	g := MustBuild(lang.MustParse(`s = 0;
L1: if (eof()) goto L2;
s = s + 1;
goto L1;
L2: write(s);`))
	if got := g.Nodes[g.LabelNode["L1"]].Line; got != 2 {
		t.Errorf("L1 targets line %d, want 2", got)
	}
	if got := g.Nodes[g.LabelNode["L2"]].Line; got != 5 {
		t.Errorf("L2 targets line %d, want 5", got)
	}
	var gotos []*Node
	for _, n := range g.Nodes {
		if n.Kind == KindGoto {
			gotos = append(gotos, n)
		}
	}
	if len(gotos) != 2 {
		t.Fatalf("found %d gotos, want 2", len(gotos))
	}
	// goto L2 at line 2 (inside the if), goto L1 at line 4.
	for _, n := range gotos {
		switch n.Line {
		case 2:
			if n.Target.Line != 5 {
				t.Errorf("goto L2 targets line %d, want 5", n.Target.Line)
			}
		case 4:
			if n.Target.Line != 2 {
				t.Errorf("goto L1 targets line %d, want 2", n.Target.Line)
			}
		default:
			t.Errorf("unexpected goto at line %d", n.Line)
		}
	}
}

func TestBuildSwitchFallthroughAndDispatch(t *testing.T) {
	g := MustBuild(lang.MustParse(`switch (c()) {
case 1:
x = 1;
case 2:
y = 2;
break;
default:
z = 3;
}
write(x);`))
	sw := nodeAt(t, g, 1)
	if sw.Kind != KindSwitch {
		t.Fatalf("line 1 kind = %v, want switch", sw.Kind)
	}
	// Dispatch: case 1 -> line 3, case 2 -> line 5, default -> line 8.
	byLabel := map[string]int{}
	for _, e := range sw.Out {
		byLabel[e.Label] = g.Nodes[e.To].Line
	}
	if byLabel["1"] != 3 || byLabel["2"] != 5 || byLabel["default"] != 8 {
		t.Errorf("dispatch = %v, want 1:3 2:5 default:8", byLabel)
	}
	// Fall-through: x=1 (line 3) flows into y=2 (line 5).
	if got := succLines(g, nodeAt(t, g, 3)); !eqInts(got, []int{5}) {
		t.Errorf("case 1 body succs = %v, want [5]", got)
	}
	// break exits to write (line 10).
	if got := succLines(g, nodeAt(t, g, 6)); !eqInts(got, []int{10}) {
		t.Errorf("break succs = %v, want [10]", got)
	}
	// default body flows past the switch.
	if got := succLines(g, nodeAt(t, g, 8)); !eqInts(got, []int{10}) {
		t.Errorf("default body succs = %v, want [10]", got)
	}
}

func TestBuildSwitchNoDefaultSkips(t *testing.T) {
	g := MustBuild(lang.MustParse("switch (c()) {\ncase 1:\nx = 1;\n}\nwrite(x);"))
	sw := nodeAt(t, g, 1)
	byLabel := map[string]int{}
	for _, e := range sw.Out {
		byLabel[e.Label] = g.Nodes[e.To].Line
	}
	if byLabel["default"] != 5 {
		t.Errorf("missing default dispatch past switch: %v", byLabel)
	}
}

func TestBuildEmptyCaseFallsThrough(t *testing.T) {
	g := MustBuild(lang.MustParse("switch (c()) {\ncase 1:\ncase 2:\nx = 1;\n}\nwrite(x);"))
	sw := nodeAt(t, g, 1)
	for _, e := range sw.Out {
		if e.Label == "1" && g.Nodes[e.To].Line != 4 {
			t.Errorf("case 1 dispatches to line %d, want 4 (fall into case 2)", g.Nodes[e.To].Line)
		}
	}
}

func TestBuildLabelOnCompound(t *testing.T) {
	g := MustBuild(lang.MustParse("Top: while (x) x = x - 1;\ngoto Top;"))
	if got := g.Nodes[g.LabelNode["Top"]]; got.Kind != KindPredicate {
		t.Errorf("Top targets %v, want the while predicate", got)
	}
	if got := g.Nodes[g.LabelNode["Top"]].Labels; len(got) != 1 || got[0] != "Top" {
		t.Errorf("labels on target = %v, want [Top]", got)
	}
}

func TestBuildEmptyProgram(t *testing.T) {
	g := MustBuild(lang.MustParse(""))
	if len(g.Nodes) != 2 {
		t.Fatalf("empty program has %d nodes, want 2", len(g.Nodes))
	}
	// Entry should flow to Exit both via the program edge and the
	// virtual edge.
	if len(g.Entry.Out) != 2 {
		t.Errorf("entry out-degree = %d, want 2", len(g.Entry.Out))
	}
}

func TestBuildEmptyStatementAndBlock(t *testing.T) {
	g := MustBuild(lang.MustParse("L: ;\ngoto L;\nM: {}\n"))
	if l := g.Nodes[g.LabelNode["L"]]; l.Kind != KindSkip {
		t.Errorf("L targets %v, want skip node", l)
	}
	if m := g.Nodes[g.LabelNode["M"]]; m.Kind != KindSkip {
		t.Errorf("M targets %v, want skip node for empty block", m)
	}
}

func TestEntryVirtualEdgeToExit(t *testing.T) {
	g := MustBuild(lang.MustParse("x = 1;"))
	found := false
	for _, e := range g.Entry.Out {
		if e.To == g.Exit.ID {
			found = true
		}
	}
	if !found {
		t.Error("missing virtual Entry->Exit edge")
	}
}

func TestReachableAndCanReachExit(t *testing.T) {
	g := MustBuild(lang.MustParse("goto L;\nx = 1;\nL: write(x);"))
	reach := g.Reachable()
	dead := nodeAt(t, g, 2)
	if reach[dead.ID] {
		t.Error("statement after unconditional goto should be unreachable")
	}
	ok := g.CanReachExit()
	if !ok[g.Entry.ID] || !ok[nodeAt(t, g, 3).ID] {
		t.Error("live nodes should reach exit")
	}
}

func TestInfiniteLoopCannotReachExit(t *testing.T) {
	g := MustBuild(lang.MustParse("L: goto L;\nwrite(x);"))
	ok := g.CanReachExit()
	if ok[g.LabelNode["L"]] {
		t.Error("self-loop goto should not reach exit")
	}
}

func TestJumpsOrderedByLine(t *testing.T) {
	g := MustBuild(lang.MustParse(`while (1) {
if (a) continue;
if (b) break;
}
goto End;
End: return;`))
	jumps := g.Jumps()
	var lines []int
	for _, j := range jumps {
		lines = append(lines, j.Line)
	}
	if !eqInts(lines, []int{2, 3, 5, 6}) {
		t.Errorf("jump lines = %v, want [2 3 5 6]", lines)
	}
}

func TestNodeForResolvesLabels(t *testing.T) {
	p := lang.MustParse("L: x = 1; goto L;")
	g := MustBuild(p)
	n := g.NodeFor(p.Body[0])
	if n == nil || n.Kind != KindAssign {
		t.Errorf("NodeFor(labeled) = %v, want the assignment node", n)
	}
}

func TestPredsMirrorSuccs(t *testing.T) {
	g := MustBuild(lang.MustParse(`while (!eof()) {
read(x);
if (x < 0) continue;
s = s + x;
}
write(s);`))
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			found := false
			for _, p := range g.Nodes[e.To].In {
				if p == n.ID {
					found = true
				}
			}
			if !found {
				t.Errorf("edge %d->%d not mirrored in preds", n.ID, e.To)
			}
		}
		for _, p := range n.In {
			found := false
			for _, e := range g.Nodes[p].Out {
				if e.To == n.ID {
					found = true
				}
			}
			if !found {
				t.Errorf("pred %d of %d has no matching edge", p, n.ID)
			}
		}
	}
}

func TestConditionalJumpIsPredicatePlusGoto(t *testing.T) {
	// "if (e) goto L" must yield two nodes on the same line: the
	// predicate and the goto, matching the paper's conditional-jump
	// rendering.
	g := MustBuild(lang.MustParse("L3: if (eof()) goto L14;\ngoto L3;\nL14: write(s);"))
	ns := g.NodesAtLine(1)
	if len(ns) != 2 {
		t.Fatalf("line 1 has %d nodes, want 2 (predicate + goto)", len(ns))
	}
	kinds := map[Kind]bool{}
	for _, n := range ns {
		kinds[n.Kind] = true
	}
	if !kinds[KindPredicate] || !kinds[KindGoto] {
		t.Errorf("line 1 kinds = %v, want predicate and goto", kinds)
	}
}

func TestBuildErrorOnHandBuiltBadGoto(t *testing.T) {
	// The parser validates goto targets, but Build must also defend
	// against hand-built ASTs (progen and the flattener construct ASTs
	// directly).
	prog := &lang.Program{
		Body:   []lang.Stmt{&lang.GotoStmt{Label: "Nowhere"}},
		Labels: map[string]*lang.LabeledStmt{},
	}
	if _, err := Build(prog); err == nil {
		t.Error("expected error for goto to unknown label")
	}
}

func TestMustBuildPanicsOnBadGoto(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustBuild(&lang.Program{
		Body:   []lang.Stmt{&lang.GotoStmt{Label: "Nowhere"}},
		Labels: map[string]*lang.LabeledStmt{},
	})
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindEntry: "entry", KindExit: "exit", KindAssign: "assign",
		KindGoto: "goto", KindSwitch: "switch", KindSkip: "skip",
		Kind(99): "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestNodeString(t *testing.T) {
	g := MustBuild(lang.MustParse("x = 1;"))
	if got := g.Entry.String(); got != "entry" {
		t.Errorf("entry String = %q", got)
	}
	if got := g.Exit.String(); got != "exit" {
		t.Errorf("exit String = %q", got)
	}
	n := g.NodesAtLine(1)[0]
	if got := n.String(); got != "1:assign x = 1;" {
		t.Errorf("node String = %q", got)
	}
}

func TestMultipleLabelsOneStatement(t *testing.T) {
	g := MustBuild(lang.MustParse("A: B: x = 1;\ngoto A;\ngoto B;"))
	n := g.NodesAtLine(1)[0]
	if len(n.Labels) != 2 {
		t.Errorf("labels = %v, want [A B] (order irrelevant)", n.Labels)
	}
	if g.LabelNode["A"] != n.ID || g.LabelNode["B"] != n.ID {
		t.Error("both labels should target the same node")
	}
}
