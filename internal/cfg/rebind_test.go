package cfg_test

import (
	"fmt"
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
		if !ok || gn.ID != wn.ID {
			t.Fatalf("%s: label %q maps to %v, want node %d", name, label, gn, wn.ID)
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
		got, ok := cfg.Rebind(prev, p2)
		if !ok {
			t.Fatalf("%s: Rebind refused a same-shape program", c.name)
		}
		want, err := cfg.Build(p2)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		requireSameGraph(t, c.name, p2, got, want)
	}
}

// TestRebindRefusesShapeChanges feeds Rebind programs whose shape
// differs from the donor graph; every one must be refused.
func TestRebindRefusesShapeChanges(t *testing.T) {
	const src = `read(x);
L1: if (x > 0) {
    x = x - 1;
    goto L1;
}
write(x);
`
	prev, err := cfg.Build(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]string{
		"extra statement":  "read(x);\nL1: if (x > 0) {\n    x = x - 1;\n    goto L1;\n}\nwrite(x);\nwrite(x);\n",
		"fewer statements": "read(x);\nL1: if (x > 0) {\n    x = x - 1;\n    goto L1;\n}\n",
		"kind change":      "read(x);\nL1: if (x > 0) {\n    read(x);\n    goto L1;\n}\nwrite(x);\n",
		"label rename":     "read(x);\nL2: if (x > 0) {\n    x = x - 1;\n    goto L2;\n}\nwrite(x);\n",
		"label moved":      "read(x);\nif (x > 0) {\n    L1: x = x - 1;\n    goto L1;\n}\nwrite(x);\n",
	} {
		if _, ok := cfg.Rebind(prev, lang.MustParse(bad)); ok {
			t.Errorf("%s: Rebind accepted a shape change", name)
		}
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
			got, ok := cfg.Rebind(prev, p2)
			if !ok {
				t.Fatalf("%s: Rebind refused a splice", name)
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
