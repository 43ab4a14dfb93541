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
