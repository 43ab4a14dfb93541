package cfg_test

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"jumpslice/internal/cfg"
	"jumpslice/internal/incremental"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

// requireSameGraph asserts the rebound graph is indistinguishable
// from a fresh Build of the same program: shape, lines, statement
// mapping, label map and jump targets.
func requireSameGraph(t *testing.T, name string, p *lang.Program, got, want *cfg.Graph) {
	t.Helper()
	if !sameShape(got, want) {
		t.Fatalf("%s: rebound graph shape differs from fresh build", name)
	}
	for i, wn := range want.Nodes {
		gn := got.Nodes[i]
		if gn.Line != wn.Line {
			t.Fatalf("%s: node %d line %d, want %d", name, i, gn.Line, wn.Line)
		}
		if (gn.Target == nil) != (wn.Target == nil) {
			t.Fatalf("%s: node %d target nil-ness differs", name, i)
		}
		if gn.Target != nil && gn.Target.ID != wn.Target.ID {
			t.Fatalf("%s: node %d target %d, want %d", name, i, gn.Target.ID, wn.Target.ID)
		}
		if wn.Stmt != nil {
			if got.NodeFor(wn.Stmt) == nil {
				// Statements differ between parses; compare via mapping below.
				t.Fatalf("%s: node %d statement not mapped", name, i)
			}
		}
	}
	for label, wn := range want.LabelNode {
		gn, ok := got.LabelNode[label]
		if !ok || gn != wn {
			t.Fatalf("%s: label %q maps to node %d, want node %d", name, label, gn, wn)
		}
	}
	for _, s := range lang.Statements(p) {
		gn, wn := got.NodeFor(s), want.NodeFor(s)
		if gn == nil || wn == nil || gn.ID != wn.ID {
			t.Fatalf("%s: statement %q maps to %v, want %v", name, lang.StmtString(s), gn, wn)
		}
	}
}

// sameShape reports whether two flowgraphs are structurally identical:
// same node count, and per node the same kind, labels, and out-edges
// (successor ID and edge label).
func sameShape(a, b *cfg.Graph) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i, an := range a.Nodes {
		bn := b.Nodes[i]
		if an.Kind != bn.Kind || !slices.Equal(an.Labels, bn.Labels) || len(an.Out) != len(bn.Out) {
			return false
		}
		for k, ae := range an.Out {
			if be := bn.Out[k]; ae.To != be.To || ae.Label != be.Label {
				return false
			}
		}
	}
	return true
}

// TestRebindMatchesBuild rebinds every paper figure and a spread of
// generated programs onto a fresh parse of their own source: the
// result must be byte-for-byte the graph Build produces.
func TestRebindMatchesBuild(t *testing.T) {
	var cases []struct {
		name string
		src  string
	}
	for _, f := range paper.All() {
		cases = append(cases, struct{ name, src string }{f.Name, f.Source})
	}
	for seed := int64(0); seed < 20; seed++ {
		p := progen.Structured(progen.Config{Seed: seed, Stmts: 60})
		cases = append(cases, struct{ name, src string }{
			fmt.Sprintf("structured-%d", seed), lang.Format(p, lang.PrintOptions{})})
		u := progen.Unstructured(progen.Config{Seed: seed, Stmts: 60})
		cases = append(cases, struct{ name, src string }{
			fmt.Sprintf("unstructured-%d", seed), lang.Format(u, lang.PrintOptions{})})
	}
	for _, c := range cases {
		prev, err := cfg.Build(lang.MustParse(c.src))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		p2 := lang.MustParse(c.src)
		got, _, _, mismatch := cfg.Rebind(prev, p2)
		if mismatch != "" {
			t.Fatalf("%s: Rebind refused a same-shape program: %s", c.name, mismatch)
		}
		want, err := cfg.Build(p2)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		requireSameGraph(t, c.name, p2, got, want)
	}
}

// TestRebindRefusesShapeChanges feeds Rebind programs whose shape
// differs from the donor graph's program; every one must be refused
// with the first difference in preorder. The moved loop boundary and
// the added else keep every node's kind in preorder and move only
// edges.
func TestRebindRefusesShapeChanges(t *testing.T) {
	const src = `read(x);
L1: if (x > 0) {
    x = x - 1;
    goto L1;
}
write(x);
`
	for _, c := range []struct{ name, from, to, why string }{
		{"extra statement", src, "read(x);\nL1: if (x > 0) {\n    x = x - 1;\n    goto L1;\n}\nwrite(x);\nwrite(x);\n",
			"statement sequence length 3 vs 4"},
		{"fewer statements", src, "read(x);\nL1: if (x > 0) {\n    x = x - 1;\n    goto L1;\n}\n",
			"statement sequence length 3 vs 2"},
		{"kind change", src, "read(x);\nL1: if (x > 0) {\n    read(x);\n    goto L1;\n}\nwrite(x);\n",
			"line 3: statement kind *lang.AssignStmt vs *lang.ReadStmt"},
		{"label rename", src, "read(x);\nL2: if (x > 0) {\n    x = x - 1;\n    goto L2;\n}\nwrite(x);\n",
			"line 2: labels [L1] vs [L2]"},
		{"label moved", src, "read(x);\nif (x > 0) {\n    L1: x = x - 1;\n    goto L1;\n}\nwrite(x);\n",
			"line 2: labels [L1] vs []"},
		{"moved loop boundary",
			"read(x);\nwhile (x > 0) {\n    x = x - 1;\n}\ny = 2;\nwrite(y);\n",
			"read(x);\nwhile (x > 0) {\n    x = x - 1;\n    y = 2;\n}\nwrite(y);\n",
			"statement sequence length 4 vs 3"},
		{"added else", "if (x > 0) x = 1; y = 2;\n", "if (x > 0) x = 1; else y = 2;\n",
			"statement sequence length 2 vs 1"},
		{"else only", "if (x > 0) x = 1; y = 2;\n", "if (x > 0) x = 1; else y = 2; y = 2;\n",
			"line 1: else branch added or removed"},
		{"case value", "switch (x) {\ncase 1: y = 1;\n}\n", "switch (x) {\ncase 2: y = 1;\n}\n",
			"line 1: case arm 0 labels differ"},
		{"case count", "switch (x) {\ncase 1: y = 1;\n}\n", "switch (x) {\ncase 1: y = 1;\ncase 2:\n}\n",
			"line 1: case count 1 vs 2"},
	} {
		prev := cfg.MustBuild(lang.MustParse(c.from))
		if g, _, _, mismatch := cfg.Rebind(prev, lang.MustParse(c.to)); mismatch != c.why || g != nil {
			t.Errorf("%s: Rebind gave mismatch %q, want %q", c.name, mismatch, c.why)
		}
	}
}

// fig3src is the paper's Figure 3 program, the donor of the edit
// tests below.
const fig3src = `sum = 0;
positives = 0;
L3: if (eof()) goto L14;
read(x);
if (x > 0) goto L8;
sum = sum + f1(x);
goto L3;
L8: positives = positives + 1;
if (x % 2 != 0) goto L12;
sum = sum + f2(x);
goto L3;
L12: sum = sum + f3(x);
goto L3;
L14: write(sum);
write(positives);
`

// editLine returns src with its line-th line replaced by text.
func editLine(src string, line int, text string) string {
	lines := strings.Split(src, "\n")
	lines[line-1] = text
	return strings.Join(lines, "\n")
}

// rebindFig3 rebinds the parse of to onto Figure 3's flowgraph.
func rebindFig3(to string) (g *cfg.Graph, edited []int, defChanged bool, mismatch string) {
	return cfg.Rebind(cfg.MustBuild(lang.MustParse(fig3src)), lang.MustParse(to))
}

func TestRebindIdentical(t *testing.T) {
	g, edited, defChanged, mismatch := rebindFig3(fig3src)
	if g == nil || len(edited) != 0 || defChanged || mismatch != "" {
		t.Fatalf("identical programs: edited %v, defChanged %v, mismatch %q", edited, defChanged, mismatch)
	}
}

func TestRebindExpressionChange(t *testing.T) {
	g, edited, defChanged, mismatch := rebindFig3(editLine(fig3src, 6, "sum = sum + f1(x) + 1;"))
	if mismatch != "" || len(edited) != 1 || defChanged {
		t.Fatalf("expression change: edited %v, defChanged %v, mismatch %q", edited, defChanged, mismatch)
	}
	if n := g.Nodes[edited[0]]; n.Line != 6 || lang.StmtString(n.Stmt) != "sum = sum + f1(x) + 1;" {
		t.Fatalf("edited node %v, want line 6's new statement", n)
	}
}

func TestRebindDefChange(t *testing.T) {
	g, edited, defChanged, mismatch := rebindFig3(editLine(fig3src, 1, "total = 0;"))
	if mismatch != "" || len(edited) != 1 || !defChanged || g.Nodes[edited[0]].Line != 1 {
		t.Fatalf("def change: edited %v, defChanged %v, mismatch %q", edited, defChanged, mismatch)
	}
}

// TestRebindStructuralChange: an inserted statement is a shape change.
func TestRebindStructuralChange(t *testing.T) {
	to := editLine(fig3src, 5, "extra = 0;\n"+strings.Split(fig3src, "\n")[4])
	if _, _, _, mismatch := rebindFig3(to); mismatch != "statement sequence length 15 vs 16" {
		t.Fatalf("insert: mismatch %q", mismatch)
	}
}

// TestRebindRelabel: a label rename retargets gotos, so it is a shape
// change.
func TestRebindRelabel(t *testing.T) {
	to := strings.ReplaceAll(fig3src, "L12", "L99")
	if _, _, _, mismatch := rebindFig3(to); mismatch != "line 9: goto target L12 vs L99" {
		t.Fatalf("relabel: mismatch %q", mismatch)
	}
}

func TestRebindJumpTargetChange(t *testing.T) {
	if _, _, _, mismatch := rebindFig3(editLine(fig3src, 7, "goto L14;")); mismatch != "line 7: goto target L3 vs L14" {
		t.Fatalf("goto retarget: mismatch %q", mismatch)
	}
}

// TestRebindAfterSpliceSharesUntouchedNodes re-splices every
// splicable line of the paper's goto figure and of generated
// unstructured programs, each source line over itself with its labels
// (labeled statements that gotos target and one-line conditional
// gotos included), and checks the rebound graph against a fresh
// Build. It must share every node whose statement the splice kept and
// whose target is shared, copy the rest, keep every jump target inside
// the rebound graph, and leave the donor graph untouched.
func TestRebindAfterSpliceSharesUntouchedNodes(t *testing.T) {
	srcs := []string{paper.Fig3().Source}
	for seed := int64(0); seed < 6; seed++ {
		srcs = append(srcs, lang.Format(progen.Unstructured(progen.Config{Seed: seed, Stmts: 40}), lang.PrintOptions{}))
	}
	spliced, retargeted := 0, 0
	for i, src := range srcs {
		p := lang.MustParse(src)
		prev, err := cfg.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(src, "\n")
		for line := 1; line <= len(lines); line++ {
			p2, ok := incremental.SpliceLine(p, line, lines[line-1])
			if !ok {
				continue
			}
			spliced++
			name := fmt.Sprintf("program %d line %d", i, line)
			got, _, _, mismatch := cfg.Rebind(prev, p2)
			if mismatch != "" {
				t.Fatalf("%s: Rebind refused a splice: %s", name, mismatch)
			}
			want, err := cfg.Build(p2)
			if err != nil {
				t.Fatal(err)
			}
			requireSameGraph(t, name, p2, got, want)
			shared := 0
			for id, n := range got.Nodes {
				if n.Target != nil && got.Nodes[n.Target.ID] != n.Target {
					t.Fatalf("%s: node %d targets a node outside the rebound graph", name, id)
				}
				if n == prev.Nodes[id] {
					shared++
				} else if n.Stmt == prev.Nodes[id].Stmt {
					retargeted++ // kept its statement; copied for its target
				}
			}
			if shared < len(got.Nodes)/2 {
				t.Errorf("%s: only %d of %d nodes shared", name, shared, len(got.Nodes))
			}
			fresh, err := cfg.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			requireSameGraph(t, name+" (donor)", p, prev, fresh)
		}
	}
	if spliced < 50 || retargeted == 0 {
		t.Fatalf("%d splices exercised, %d jumps retargeted at a copied node; want both", spliced, retargeted)
	}
}

// assignLine matches a formatted assignment line, capturing its
// indentation and labels and its target variable.
var assignLine = regexp.MustCompile(`^(\s*(?:\w+: )*)(\w+) = .*;$`)

// FuzzRebind rebinds one program's flowgraph onto another program.
// Whenever Rebind accepts, its graph must be Build's node for node,
// its edited set exactly the node positions whose statements print
// differently, and defChanged exactly whether one of them defines a
// different variable.
func FuzzRebind(f *testing.F) {
	f.Add("read(x);\nwhile (x > 0) {\n    x = x - 1;\n}\ny = 2;\nwrite(y);\n",
		"read(x);\nwhile (x > 0) {\n    x = x - 1;\n    y = 2;\n}\nwrite(y);\n")
	f.Add("if (x > 0) x = 1; y = 2;\n", "if (x > 0) x = 1; else y = 2;\n")
	for _, fig := range paper.All() {
		f.Add(fig.Source, fig.Source)
		f.Add(fig.Source, strings.Replace(fig.Source, "x", "y", 1))
	}
	for seed := int64(0); seed < 3; seed++ {
		for _, gen := range []func(progen.Config) *lang.Program{progen.Structured, progen.Unstructured} {
			src := lang.Format(gen(progen.Config{Seed: seed, Stmts: 30}), lang.PrintOptions{})
			lines := strings.Split(src, "\n")
			for i := len(lines) - 1; i >= 0; i-- {
				if m := assignLine.FindStringSubmatch(lines[i]); m != nil {
					f.Add(src, editLine(src, i+1, m[1]+m[2]+" = 1;"))
					f.Add(src, editLine(src, i+1, m[1]+"w = "+m[2]+";"))
					break
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, from, to string) {
		p, err := lang.Parse(from)
		if err != nil {
			return
		}
		q, err := lang.Parse(to)
		if err != nil {
			return
		}
		prev := cfg.MustBuild(p)
		g, edited, defChanged, mismatch := cfg.Rebind(prev, q)
		if mismatch != "" {
			if g != nil || edited != nil || defChanged {
				t.Fatalf("refused (%s) with a result", mismatch)
			}
			return
		}
		requireSameGraph(t, "rebind", q, g, cfg.MustBuild(q))
		var want []int
		wantDef := false
		for id := cfg.FirstStmt; id < len(g.Nodes); id++ {
			o, n := prev.Nodes[id].Stmt, g.Nodes[id].Stmt
			if lang.StmtString(o) != lang.StmtString(n) {
				want = append(want, id)
				wantDef = wantDef || lang.Def(o) != lang.Def(n)
			}
		}
		if !slices.Equal(edited, want) || defChanged != wantDef {
			t.Fatalf("edited %v defChanged %v, want %v %v", edited, defChanged, want, wantDef)
		}
	})
}

// FuzzRebindSplice applies two one-line incremental.SpliceLine edits
// in turn and rebinds after each, the second time onto the graph the
// first rebind made. A splice shares every statement off the edited
// line's path, so these rebinds skip shared statements by their spans,
// which FuzzRebind, parsing both sides, never does. Every accepted
// graph must be Build's node for node, with the edited set exactly the
// positions whose statements print differently and every jump target
// inside the graph, and must leave its donor as Build made it; a
// refusal must be a real shape change.
func FuzzRebindSplice(f *testing.F) {
	f.Add(fig3src, 6, "sum = sum + f1(x) + 1;", 12, "L12: sum = sum + f3(x) + 2;")
	f.Add(fig3src, 2, "total = 0;", 3, "L3: if (eof()) goto L8;")
	f.Add("read(x);\nwhile (x > 0) {\n    x = x - 1;\n    if (x > 5) break;\n}\ny = 2;\nwrite(y);\n",
		3, "    x = x - 2;", 6, "y = x;")
	f.Add("switch (x) {\ncase 1:\n    y = 1;\n    break;\ncase 2:\n    y = 2;\n}\nwrite(y);\n", 6, "    z = 2;", 3, "    y = 3;")
	for seed := int64(0); seed < 3; seed++ {
		for _, gen := range []func(progen.Config) *lang.Program{progen.Structured, progen.Unstructured} {
			src := lang.Format(gen(progen.Config{Seed: seed, Stmts: 30}), lang.PrintOptions{})
			var at []int
			lines := strings.Split(src, "\n")
			for i, l := range lines {
				if assignLine.MatchString(l) {
					at = append(at, i)
				}
			}
			if len(at) < 2 {
				continue
			}
			first, last := assignLine.FindStringSubmatch(lines[at[0]]), assignLine.FindStringSubmatch(lines[at[len(at)-1]])
			f.Add(src, at[0]+1, first[1]+first[2]+" = 1;", at[len(at)-1]+1, last[1]+"w = "+last[2]+";")
		}
	}
	f.Fuzz(func(t *testing.T, src string, line1 int, text1 string, line2 int, text2 string) {
		p0, err := lang.Parse(src)
		if err != nil {
			return
		}
		g0 := cfg.MustBuild(p0)
		prev, p := g0, p0
		for _, e := range []struct {
			line int
			text string
		}{{line1, text1}, {line2, text2}} {
			q, ok := incremental.SpliceLine(p, e.line, e.text)
			if !ok {
				return
			}
			g, edited, defChanged, mismatch := cfg.Rebind(prev, q)
			if mismatch != "" {
				if g != nil || edited != nil || defChanged {
					t.Fatalf("refused (%s) with a result", mismatch)
				}
				// A refusal must be a shape change: a span skipped with
				// the wrong node or label count would refuse a splice
				// that kept the flowgraph (and every goto's label).
				if b := cfg.MustBuild(q); sameShape(prev, b) && sameGotos(prev, b) {
					t.Fatalf("line %d %q: refused (%s) a splice that kept the flowgraph", e.line, e.text, mismatch)
				}
				return
			}
			requireSameGraph(t, "rebind", q, g, cfg.MustBuild(q))
			var want []int
			wantDef := false
			for id := cfg.FirstStmt; id < len(g.Nodes); id++ {
				o, n := prev.Nodes[id].Stmt, g.Nodes[id].Stmt
				if lang.StmtString(o) != lang.StmtString(n) {
					want = append(want, id)
					wantDef = wantDef || lang.Def(o) != lang.Def(n)
				}
				if tg := g.Nodes[id].Target; tg != nil && g.Nodes[tg.ID] != tg {
					t.Fatalf("line %d %q: node %d targets a node outside the rebound graph", e.line, e.text, id)
				}
			}
			if !slices.Equal(edited, want) || defChanged != wantDef {
				t.Fatalf("line %d %q: edited %v defChanged %v, want %v %v", e.line, e.text, edited, defChanged, want, wantDef)
			}
			requireSameGraph(t, "donor", p, prev, cfg.MustBuild(p))
			prev, p = g, q
		}
	})
}

// sameGotos reports whether two graphs of one shape have the same goto
// statements, label for label.
func sameGotos(a, b *cfg.Graph) bool {
	for i, an := range a.Nodes {
		if an.Kind == cfg.KindGoto && lang.StmtString(an.Stmt) != lang.StmtString(b.Nodes[i].Stmt) {
			return false
		}
	}
	return true
}
