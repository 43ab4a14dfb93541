package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"jumpslice/internal/dataflow"
	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// retarget renames the variable one random assignment or read of src
// defines and returns the new text with the old and new names (equal
// when the program has no definition to move). With probability 3/4
// the new name is one the program already defines, so the edit keeps
// the set of defined variables and the partial tier re-solves only the
// moved ones; otherwise it is any of v0..v9, which may be a variable's
// first definition.
func retarget(rng *rand.Rand, src string, defined []string) (string, string, string) {
	p := lang.MustParse(src)
	var cands []lang.Stmt
	for _, s := range lang.Statements(p) {
		switch lang.Unlabel(s).(type) {
		case *lang.AssignStmt, *lang.ReadStmt:
			cands = append(cands, s)
		}
	}
	if len(cands) == 0 {
		return src, "", ""
	}
	name := fmt.Sprintf("v%d", rng.Intn(10))
	if len(defined) > 0 && rng.Intn(4) > 0 {
		name = defined[rng.Intn(len(defined))]
	}
	var old string
	switch s := lang.Unlabel(cands[rng.Intn(len(cands))]).(type) {
	case *lang.AssignStmt:
		old, s.Name = s.Name, name
	case *lang.ReadStmt:
		old, s.Name = s.Name, name
	}
	return lang.Format(p, lang.PrintOptions{}), old, name
}

// definedVars returns the program variables a's definitions define,
// sorted, with each one's definition count.
func definedVars(a *Analysis) ([]string, map[string]int) {
	count := map[string]int{}
	for _, d := range a.RD.Defs {
		if d.Var != dataflow.InputVar {
			count[d.Var]++
		}
	}
	var names []string
	for v := range count {
		names = append(names, v)
	}
	slices.Sort(names)
	return names, count
}

// requireSameDataflow fails unless inc's reaching definitions and
// every dependence row equal cold's.
func requireSameDataflow(t *testing.T, ctxt string, inc, cold *Analysis) {
	t.Helper()
	if !reflect.DeepEqual(inc.RD.Defs, cold.RD.Defs) {
		t.Fatalf("%s: Defs differ:\n got %v\nwant %v", ctxt, inc.RD.Defs, cold.RD.Defs)
	}
	for n := range cold.CFG.Nodes {
		if !inc.RD.In[n].Equal(cold.RD.In[n]) {
			t.Fatalf("%s: In[%d] = %v, want %v", ctxt, n, inc.RD.In[n], cold.RD.In[n])
		}
		want := cold.RD.DataDepsOf(cold.CFG.Nodes[n])
		if got := inc.RD.DataDepsOf(inc.CFG.Nodes[n]); !slices.Equal(got, want) {
			t.Fatalf("%s: DataDepsOf(%d) = %v, want %v", ctxt, n, got, want)
		}
		if got := inc.RD.AppendDataDeps(nil, n); !slices.Equal(got, want) {
			t.Fatalf("%s: AppendDataDeps(%d) = %v, want %v", ctxt, n, got, want)
		}
		if got, want := inc.PDG.DataDeps(n), cold.PDG.DataDeps(n); !slices.Equal(got, want) {
			t.Fatalf("%s: PDG.DataDeps(%d) = %v, want %v", ctxt, n, got, want)
		}
		if got, want := inc.PDG.Deps(n), cold.PDG.Deps(n); !slices.Equal(got, want) {
			t.Fatalf("%s: PDG.Deps(%d) = %v, want %v", ctxt, n, got, want)
		}
	}
	if got, want := inc.Footprint(), cold.Footprint(); got != want {
		t.Fatalf("%s: Footprint %d, want %d", ctxt, got, want)
	}
}

// TestPartialTierMatchesCold: on both generated corpora, chains of
// definition moves — with an expression edit between them, so a
// patched edit's rows feed the next move — re-analyzed incrementally
// must leave reaching definitions (Defs, In, the data dependences of
// every node) and every PDG row exactly as a cold analysis of the
// edited text has them. Both partial paths must run: the per-variable
// re-solve, and the cold Reach an edit changing the set of defined
// variables takes.
func TestPartialTierMatchesCold(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	paths := map[string]int{}
	for _, corpus := range []struct {
		name string
		gen  func(progen.Config) *lang.Program
	}{{"structured", progen.Structured}, {"unstructured", progen.Unstructured}} {
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			src := lang.Format(corpus.gen(progen.Config{Seed: int64(seed), Stmts: 40}), lang.PrintOptions{})
			cur := analyzeSrc(t, src)
			for step := 0; step < 6; step++ {
				ctxt := fmt.Sprintf("%s seed %d step %d", corpus.name, seed, step)
				newSrc, wantTier := src, "partial"
				path := ""
				names, count := definedVars(cur)
				if step%2 == 1 {
					newSrc, wantTier = mutateExpr(rng, src, names), "patched"
				} else {
					var old, name string
					newSrc, old, name = retarget(rng, src, names)
					if old == name {
						continue
					}
					path = "re-solve"
					if count[name] == 0 || count[old] == 1 {
						path = "cold reach"
					}
				}
				inc, stats, err := reanalyze(cur, newSrc)
				if err != nil {
					t.Fatalf("%s: %v", ctxt, err)
				}
				if stats.Outcome != wantTier {
					t.Fatalf("%s: outcome %q (fallback %q), want %q", ctxt, stats.Outcome, stats.Fallback, wantTier)
				}
				paths[path]++
				requireSameDataflow(t, ctxt, inc, analyzeSrc(t, newSrc))
				src, cur = newSrc, inc
			}
		}
	}
	if paths["re-solve"] == 0 || paths["cold reach"] == 0 {
		t.Errorf("a partial path never ran: %v", paths)
	}
}

// mutateExpr adds a constant or one of the variables defined to the
// value of one random assignment or write of src: a patched-tier edit,
// which in the second form changes the variables the statement uses.
func mutateExpr(rng *rand.Rand, src string, defined []string) string {
	p := lang.MustParse(src)
	var vals []*lang.Expr
	for _, s := range lang.Statements(p) {
		switch s := lang.Unlabel(s).(type) {
		case *lang.AssignStmt:
			vals = append(vals, &s.Value)
		case *lang.WriteStmt:
			vals = append(vals, &s.Value)
		}
	}
	if len(vals) == 0 {
		return src
	}
	v := vals[rng.Intn(len(vals))]
	var y lang.Expr = &lang.IntLit{Value: int64(1 + rng.Intn(9))}
	if len(defined) > 0 && rng.Intn(2) == 0 {
		y = &lang.Ident{Name: defined[rng.Intn(len(defined))]}
	}
	*v = &lang.BinaryExpr{Op: "+", X: *v, Y: y}
	return lang.Format(p, lang.PrintOptions{})
}

// footprintByWalk is Footprint's edge term as it was first computed:
// every node's dependence row and successor list, summed.
func footprintByWalk(a *Analysis) (deps, succs int) {
	for v := range a.CFG.Nodes {
		deps += len(a.PDG.Deps(v))
		succs += len(a.CFG.Succs(v))
	}
	return deps, succs
}

// TestFootprintEdgeCountsMatchWalk: the edge counts Footprint reads
// off the flowgraph and the PDG equal the per-node sums, over both
// corpora, and along a chain of patched edits that overlays more
// rows than a derived PDG keeps before flattening.
func TestFootprintEdgeCountsMatchWalk(t *testing.T) {
	check := func(ctxt string, a *Analysis) {
		t.Helper()
		deps, succs := footprintByWalk(a)
		if a.PDG.NumDeps() != deps || a.CFG.NumEdges() != succs {
			t.Fatalf("%s: NumDeps %d, NumEdges %d; per-node sums %d, %d",
				ctxt, a.PDG.NumDeps(), a.CFG.NumEdges(), deps, succs)
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		check(fmt.Sprintf("structured seed %d", seed), MustAnalyze(progen.Structured(progen.Config{Seed: seed, Stmts: 60})))
		check(fmt.Sprintf("unstructured seed %d", seed), MustAnalyze(progen.Unstructured(progen.Config{Seed: seed, Stmts: 60})))
	}

	// Each edit changes a different assignment's row; 40 of them pass
	// the overlay bound (16 rows) at least twice. Using the assigned
	// variable itself adds a dependence on its reaching definitions,
	// so the row really changes.
	cur := MustAnalyze(progen.Structured(progen.Config{Seed: 3, Stmts: 120}))
	for i := 0; i < 40; i++ {
		p := lang.MustParse(lang.Format(cur.Prog, lang.PrintOptions{}))
		var assigns []*lang.AssignStmt
		for _, s := range lang.Statements(p) {
			if as, ok := lang.Unlabel(s).(*lang.AssignStmt); ok {
				assigns = append(assigns, as)
			}
		}
		if len(assigns) < 40 {
			t.Fatalf("only %d assignments", len(assigns))
		}
		as := assigns[i]
		as.Value = &lang.BinaryExpr{Op: "+", X: &lang.Ident{Name: as.Name}, Y: as.Value}
		next, stats, err := ReanalyzeProgram(context.Background(), cur, p, nil, nil)
		if err != nil || stats.Outcome != "patched" {
			t.Fatalf("edit %d: err %v, stats %+v", i, err, stats)
		}
		check(fmt.Sprintf("edit %d", i), next)
		cur = next
	}
}
