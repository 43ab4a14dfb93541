package pdg

import (
	"math/rand"
	"testing"

	"jumpslice/internal/cdg"
	"jumpslice/internal/cfg"
	"jumpslice/internal/dataflow"
	"jumpslice/internal/dom"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

// TestRederiveMatchesBuild checks that replacing one node's
// data-dependence row via Rederive produces exactly the rows a fresh
// Build over the altered reaching-definitions result would.
func TestRederiveMatchesBuild(t *testing.T) {
	for _, f := range paper.All() {
		g, p := build(t, f.Source)
		// Rebuild the same program cold to obtain an independent
		// "edited" pipeline (the edit here is a no-op, which still
		// exercises every sharing path).
		prog2, err := lang.Parse(f.Source)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		g2, err := cfg.Build(prog2)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		pdt := dom.PostDominators(g2, g2.Exit.ID)
		cd := cdg.Build(g2, pdt)
		rd := dataflow.Reach(g2)
		want := Build(g2, cd, rd)

		// Rederive every node's row one at a time from the original.
		for id := range g.Nodes {
			got := p.Rederive(g2, cd, []Row{{id, rd.DataDepsOf(g2.Nodes[id])}})
			for n := range g.Nodes {
				if !equalInts(got.Deps(n), want.Deps(n)) {
					t.Fatalf("%s: Rederive(%d).Deps(%d) = %v, want %v", f.Name, id, n, got.Deps(n), want.Deps(n))
				}
				if !equalInts(got.DataDeps(n), want.DataDeps(n)) {
					t.Fatalf("%s: Rederive(%d).DataDeps(%d) = %v, want %v", f.Name, id, n, got.DataDeps(n), want.DataDeps(n))
				}
			}
		}
	}
}

// TestPatchedMatchesCondense fuzzes Condensation.Patched against a
// cold Condense of the altered relation: whenever Patched accepts an
// edit, every node's closure must be identical to the cold build's.
func TestPatchedMatchesCondense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	accepted := 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(20)
		adj := randRelation(rng, n)
		c := Condense(adj)
		// Warm a random subset of closures so sharing below the edit
		// point is exercised.
		for i := 0; i < n; i += 1 + rng.Intn(3) {
			closure(c, i)
		}
		// Propose a new row for one node.
		target := rng.Intn(n)
		row := randRow(rng, n)
		patched, ok := c.Patched([]Row{{target, row}})
		adj2 := make([][]int, n)
		copy(adj2, adj)
		adj2[target] = row
		cold := Condense(adj2)
		if !ok {
			// Refusals are fine (that is the fallback path), but they
			// must be justified: either the component was not a
			// singleton or the new row reached a non-smaller component.
			cn := c.comp[target]
			justified := len(c.comps[cn]) != 1
			for _, d := range row {
				if d != target && c.comp[d] >= cn {
					justified = true
				}
			}
			if !justified {
				t.Fatalf("trial %d: Patched refused a safe edit", trial)
			}
			continue
		}
		accepted++
		for v := 0; v < n; v++ {
			if got, want := closure(patched, v), closure(cold, v); !got.Equal(want) {
				t.Fatalf("trial %d: patched closure of %d = %v, cold = %v",
					trial, v, got, want)
			}
		}
		// The original condensation must be untouched.
		for v := 0; v < n; v++ {
			if !closure(c, v).Equal(closure(Condense(adj), v)) {
				t.Fatalf("trial %d: Patched mutated the original", trial)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no trial exercised the accepting path")
	}
}

// randRelation builds a random dependence relation biased toward the
// DAG-with-occasional-cycles shape real PDGs have.
func randRelation(rng *rand.Rand, n int) [][]int {
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		for d := 0; d < n; d++ {
			if d != v && rng.Intn(4) == 0 {
				adj[v] = append(adj[v], d)
			}
		}
	}
	return adj
}

func randRow(rng *rand.Rand, n int) []int {
	var row []int
	for d := 0; d < n; d++ {
		if rng.Intn(5) == 0 {
			row = append(row, d)
		}
	}
	return row
}

func equalInts(a, b []int) bool {
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

// TestRederiveChainMatchesModel derives a long chain of graphs, each
// from the previous one with a few rows replaced — an editing session
// — past several overlay flattenings, and checks every row of every
// graph in the chain against a plain [][]int model (NumDeps against
// the model's row lengths), and that no derivation disturbs the graph
// it was derived from.
func TestRederiveChainMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, p := build(t, lang.Format(progen.Unstructured(progen.Config{Seed: 5, Stmts: 40}), lang.PrintOptions{}))
	n := len(g.Nodes)
	flattened := 0
	type snapshot struct{ data, deps [][]int }
	snap := func(q *Graph) snapshot {
		var s snapshot
		for v := 0; v < n; v++ {
			s.data = append(s.data, append([]int(nil), q.DataDeps(v)...))
			s.deps = append(s.deps, append([]int(nil), q.Deps(v)...))
		}
		return s
	}
	check := func(step int, q *Graph, want snapshot) {
		t.Helper()
		edges := 0
		for v := 0; v < n; v++ {
			if !equalInts(q.DataDeps(v), want.data[v]) || !equalInts(q.Deps(v), want.deps[v]) {
				t.Fatalf("step %d node %d: rows %v / %v, want %v / %v",
					step, v, q.DataDeps(v), q.Deps(v), want.data[v], want.deps[v])
			}
			edges += len(want.deps[v])
		}
		if q.NumDeps() != edges {
			t.Fatalf("step %d: NumDeps %d, rows hold %d", step, q.NumDeps(), edges)
		}
	}
	type link struct {
		g    *Graph
		want snapshot
	}
	chain := []link{{p, snap(p)}}
	for step := 1; step <= 4*maxOverlay; step++ {
		prev := chain[len(chain)-1]
		model := snapshot{append([][]int(nil), prev.want.data...), append([][]int(nil), prev.want.deps...)}
		edits := map[int][]int{}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			v := rng.Intn(n)
			row := randRow(rng, n)
			edits[v] = row
			model.data[v] = row
			var merged []int
			for d := 0; d < n; d++ {
				if containsInt(row, d) || containsInt(p.CDG.ParentIDs(v), d) {
					merged = append(merged, d)
				}
			}
			model.deps[v] = merged
		}
		rows := make([]Row, 0, len(edits))
		for v, row := range edits {
			rows = append(rows, Row{v, row})
		}
		q := prev.g.Rederive(g, p.CDG, rows)
		if len(q.over) > maxOverlay {
			t.Fatalf("step %d: overlay grew to %d rows", step, len(q.over))
		}
		if len(q.over) < len(prev.g.over) {
			flattened++
		}
		chain = append(chain, link{q, model})
		for i, l := range chain {
			check(step*1000+i, l.g, l.want)
		}
	}
	if flattened == 0 {
		t.Fatal("the chain never flattened its overlay")
	}
}
