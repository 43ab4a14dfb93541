package dataflow_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"jumpslice/internal/cdg"
	"jumpslice/internal/cfg"
	"jumpslice/internal/dataflow"
	"jumpslice/internal/dom"
	"jumpslice/internal/lang"
	"jumpslice/internal/pdg"
	"jumpslice/internal/progen"
)

// deadCode is spliced into corpus programs to give them unreachable
// statements: dead definitions (an assignment, a read of the input
// cursor) and a dead loop, whose back edge the reverse-postorder
// iteration never visits.
const deadCode = `goto Dead0;
v0 = v1 + eof();
read(v2);
while (v0 < 3) {
    v0 = v0 + 1;
}
Dead0: write(v0 + v2);
`

// withDeadCode returns p with deadCode spliced into its main body at
// top-level statement position at, formatted and parsed back so every
// statement carries a real source line.
func withDeadCode(t *testing.T, p *lang.Program, at int) *lang.Program {
	t.Helper()
	dead := lang.MustParse(deadCode).Body
	at %= len(p.Body) + 1
	q := *p
	q.Body = append(append(append([]lang.Stmt(nil), p.Body[:at]...), dead...), p.Body[at:]...)
	out, err := lang.Parse(lang.Format(&q, lang.PrintOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// refDeps is the PDG row the map-merge construction produced: the
// reference data row and the postdominance-frontier control row,
// unioned through a map and sorted.
func refDeps(data, control []int) []int {
	seen := map[int]bool{}
	for _, d := range data {
		seen[d] = true
	}
	for _, d := range control {
		seen[d] = true
	}
	var out []int
	for d := range seen {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

func sameRow(a, b []int) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }

// TestDenseMatchesReference property-tests the dense dependence core
// against the string-keyed reference analysis it replaced, over the
// 240-program corpus (120 seeds of each generator) and a copy of each
// program with unreachable code spliced in: the same definitions and
// In sets, the same ReachingDefsOf for every (node, variable) pair
// (variables nothing defines included), the same data rows through
// all three accessors, and the same PDG rows as the reference data
// rows merged with the frontier CDG oracle.
func TestDenseMatchesReference(t *testing.T) {
	corpora := []struct {
		name string
		gen  func(progen.Config) *lang.Program
	}{
		{"structured", progen.Structured},
		{"unstructured", progen.Unstructured},
	}
	deadReached := 0
	for _, corpus := range corpora {
		for seed := int64(0); seed < 120; seed++ {
			p := corpus.gen(progen.Config{Seed: seed, Stmts: 30})
			for variant, prog := range []*lang.Program{p, withDeadCode(t, p, int(seed))} {
				name := fmt.Sprintf("%s seed %d variant %d", corpus.name, seed, variant)
				g, err := cfg.Build(prog)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if variant == 1 {
					for _, live := range g.Reachable() {
						if !live {
							deadReached++
							break
						}
					}
				}
				checkDense(t, name, g, lang.VarNames(prog))
			}
		}
	}
	if deadReached != 2*120 {
		t.Fatalf("%d of 240 dead-code variants have unreachable nodes, want all", deadReached)
	}
}

func checkDense(t *testing.T, name string, g *cfg.Graph, vars []string) {
	t.Helper()
	rd, ref := dataflow.Reach(g), dataflow.RefReach(g)
	if !reflect.DeepEqual(rd.Defs, ref.Defs) {
		t.Fatalf("%s: Defs %v, reference %v", name, rd.Defs, ref.Defs)
	}
	vars = append(vars, dataflow.InputVar, "undefined")
	for _, n := range g.Nodes {
		if !rd.In[n.ID].Equal(ref.In[n.ID]) {
			t.Fatalf("%s: In[%v] = %v, reference %v", name, n, rd.In[n.ID], ref.In[n.ID])
		}
		for _, v := range vars {
			if got, want := rd.ReachingDefsOf(n.ID, v), ref.ReachingDefsOf(n.ID, v); !sameRow(got, want) {
				t.Fatalf("%s: ReachingDefsOf(%v, %s) = %v, reference %v", name, n, v, got, want)
			}
		}
	}
	pdt := dom.PostDominators(g, g.Exit.ID)
	p := pdg.Build(g, cdg.Build(g, pdt), rd)
	frontier := cdg.ParentsByPDF(g, pdt)
	dense, want := rd.DataDeps(), ref.DataDeps()
	for _, n := range g.Nodes {
		w := want[n.ID]
		if got := rd.DataDepsOf(n); !sameRow(got, w) {
			t.Fatalf("%s: DataDepsOf(%v) = %v, reference %v", name, n, got, w)
		}
		if !sameRow(dense[n.ID], w) {
			t.Fatalf("%s: DataDeps()[%v] = %v, reference %v", name, n, dense[n.ID], w)
		}
		if got := p.DataDeps(n.ID); !sameRow(got, w) {
			t.Fatalf("%s: pdg DataDeps(%v) = %v, reference %v", name, n, got, w)
		}
		if got, w := p.Deps(n.ID), refDeps(w, frontier[n.ID]); !sameRow(got, w) {
			t.Fatalf("%s: pdg Deps(%v) = %v, reference %v", name, n, got, w)
		}
	}
}
