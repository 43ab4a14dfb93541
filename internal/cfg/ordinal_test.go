package cfg_test

import (
	"testing"

	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

// TestStatementOrdinals pins the numbering lang.FormatProjection
// relies on: walking the body in preorder and counting the
// node-bearing statements (all but label wrappers and non-empty
// blocks), the statement with ordinal k has node ID FirstStmt+k — in
// a built graph and in one rebound onto a same-shape program.
func TestStatementOrdinals(t *testing.T) {
	var progs []*lang.Program
	for seed := int64(0); seed < 20; seed++ {
		c := progen.Config{Seed: seed, Stmts: 80}
		progs = append(progs, progen.Structured(c), progen.Unstructured(c))
	}
	for _, f := range paper.All() {
		progs = append(progs, f.Parse())
	}
	for i, p := range progs {
		g := cfg.MustBuild(p)
		rebound, ok := cfg.Rebind(g, p)
		if !ok {
			t.Fatalf("program %d: rebind onto itself refused", i)
		}
		for _, gr := range []*cfg.Graph{g, rebound} {
			ord := 0
			for _, s := range p.Body {
				lang.Walk(s, func(x lang.Stmt) {
					switch x := x.(type) {
					case *lang.LabeledStmt:
						return
					case *lang.BlockStmt:
						if len(x.List) > 0 {
							return
						}
					}
					if n := gr.NodeFor(x); n == nil || n.ID != cfg.FirstStmt+ord {
						t.Fatalf("program %d: statement %d (%s) has node %v, want ID %d", i, ord, lang.StmtString(x), n, cfg.FirstStmt+ord)
					}
					ord++
				})
			}
			if want := gr.NumNodes() - cfg.FirstStmt; ord != want {
				t.Fatalf("program %d: %d node-bearing statements, %d statement nodes", i, ord, want)
			}
		}
	}
}
