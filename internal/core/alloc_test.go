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
