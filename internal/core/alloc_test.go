package core_test

import (
	"testing"

	"jumpslice/internal/core"
	"jumpslice/internal/progen"
)

// TestAnalyzeAllocs pins the dense dependence core's allocation
// budget on a fixed 200-statement unstructured program (the
// cold-pipeline workload's shape). Allocation counts are
// deterministic, so unlike timings this ceiling cannot flake. The
// string-keyed dataflow and map-merged PDG rows this core replaced
// allocated 6558 times here; the dense core allocates about 1100.
func TestAnalyzeAllocs(t *testing.T) {
	prog := progen.Unstructured(progen.Config{Seed: 1, Stmts: 200})
	n := testing.AllocsPerRun(10, func() {
		if _, err := core.Analyze(prog); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("core.Analyze: %.0f allocations", n)
	if n > 1500 {
		t.Errorf("core.Analyze allocates %.0f times, ceiling 1500", n)
	}
}

// TestFormatAllocs pins the cost of printing a slice: Format prints
// straight from the original AST, so it allocates the listing string
// and the projection it hands the printer, which holds up to four
// retargeted labels inline. Printing through a materialized copy of
// the program allocated 352 times on this slice.
func TestFormatAllocs(t *testing.T) {
	prog := progen.Structured(progen.Config{Seed: 3, Stmts: 120})
	a, err := core.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	crits := progen.WriteCriteria(prog)
	c := core.Criterion{Var: crits[len(crits)-1].Var, Line: crits[len(crits)-1].Line}
	s, err := a.Agrawal(c)
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled printers at random")
	}
	_ = s.Format() // warm the printer pool
	n := testing.AllocsPerRun(20, func() { _ = s.Format() })
	t.Logf("Slice.Format on a %d-node slice: %.0f allocations", s.Nodes.Len(), n)
	if n > 2 {
		t.Errorf("Slice.Format allocates %.0f times, ceiling 2", n)
	}
}

// TestExplainAllocs pins the cost of explaining a slice and rendering
// its reasons and listing, on BenchmarkSingleCriterion's four slices
// (progen Structured, 400 statements, 3000 to 5500 records each).
// Explain fills one flat table, and LineReasons and Listing render
// into pooled buffers, so each slice costs 16 or 17 allocations
// however many records it has; the ceiling leaves room for a pool the
// collector emptied. A per-node map of record slices with one sort
// closure per node allocated about 3100 times per slice.
func TestExplainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	for seed := int64(1); seed <= 4; seed++ {
		prog := progen.Structured(progen.Config{Seed: seed, Stmts: 400})
		a, err := core.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		crits := progen.WriteCriteria(prog)
		s, err := a.Agrawal(core.Criterion{Var: crits[len(crits)-1].Var, Line: crits[len(crits)-1].Line})
		if err != nil {
			t.Fatal(err)
		}
		var p *core.Provenance
		explain := func() {
			if p, err = s.Explain(); err != nil {
				t.Fatal(err)
			}
			_ = p.LineReasons()
			_ = p.Listing()
		}
		explain() // warm the pools
		n := testing.AllocsPerRun(20, explain)
		records := 0
		for id := 0; id < p.Len(); id++ {
			records += len(p.Reasons(id))
		}
		t.Logf("seed %d: %d-node slice, %d records: %.0f allocations", seed, s.Nodes.Len(), records, n)
		if n > 20 {
			t.Errorf("seed %d: explain with rendering allocates %.0f times, ceiling 20", seed, n)
		}
	}
}
