package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestWriteJSONLRoundTrips checks WriteJSONL's one-object-per-line
// format, the requests.jsonl wire format of a post-mortem bundle.
func TestWriteJSONLRoundTrips(t *testing.T) {
	evs := []WideEvent{{Req: 3, Endpoint: "/slice", Status: 200, Phases: []PhaseDur{{Name: "phase.analyze", NS: 13}}}}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("JSONL line not valid JSON: %v\n%s", err, line)
	}
	if got["req"] != float64(3) || got["endpoint"] != "/slice" || got["status"] != float64(200) {
		t.Errorf("JSONL fields = %v", got)
	}
}

// TestPrometheusGolden pins the exact exposition bytes for a fixed
// snapshot: counter naming (_total), histogram unit suffixing, sparse
// cumulative buckets with explicit le bounds, the unbounded overflow
// bucket rendered as +Inf, and name-sorted deterministic order.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.slices").Add(3)
	r.Counter("pdg.closure_hits").Add(5)
	sizes := r.Histogram("core.slice_nodes", UnitCount)
	for _, v := range []int64{1, 2, 3, 1 << 50} {
		sizes.Observe(v)
	}
	phase := r.Histogram("phase.analyze", UnitNanoseconds)
	phase.Observe(100)
	phase.Observe(200)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE jumpslice_core_slices_total counter
jumpslice_core_slices_total 3
# TYPE jumpslice_pdg_closure_hits_total counter
jumpslice_pdg_closure_hits_total 5
# TYPE jumpslice_core_slice_nodes histogram
jumpslice_core_slice_nodes_bucket{le="1"} 1
jumpslice_core_slice_nodes_bucket{le="3"} 3
jumpslice_core_slice_nodes_bucket{le="+Inf"} 4
jumpslice_core_slice_nodes_sum 1125899906842630
jumpslice_core_slice_nodes_count 4
# TYPE jumpslice_phase_analyze_ns histogram
jumpslice_phase_analyze_ns_bucket{le="127"} 1
jumpslice_phase_analyze_ns_bucket{le="255"} 2
jumpslice_phase_analyze_ns_bucket{le="+Inf"} 2
jumpslice_phase_analyze_ns_sum 300
jumpslice_phase_analyze_ns_count 2
`
	if got := buf.String(); got != want {
		t.Errorf("prometheus exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusCacheNamesGolden pins the wire names of the slice
// cache's instruments (internal/slicecache resolves these from its
// registry): counters render with _total, the resident-size gauges
// render bare, and gauges sort between counters and histograms. CI's
// sliced-smoke job greps for jumpslice_cache_hits_total, so this
// golden is the contract that name never drifts.
func TestPrometheusCacheNamesGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.hits").Add(7)
	r.Counter("cache.misses").Add(2)
	r.Counter("cache.coalesced").Add(3)
	r.Counter("cache.evictions").Add(1)
	r.Counter("cache.neg_hits").Add(1)
	r.Gauge("cache.resident_bytes").Set(4096)
	r.Gauge("cache.entries").Set(2)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE jumpslice_cache_coalesced_total counter
jumpslice_cache_coalesced_total 3
# TYPE jumpslice_cache_evictions_total counter
jumpslice_cache_evictions_total 1
# TYPE jumpslice_cache_hits_total counter
jumpslice_cache_hits_total 7
# TYPE jumpslice_cache_misses_total counter
jumpslice_cache_misses_total 2
# TYPE jumpslice_cache_neg_hits_total counter
jumpslice_cache_neg_hits_total 1
# TYPE jumpslice_cache_entries gauge
jumpslice_cache_entries 2
# TYPE jumpslice_cache_resident_bytes gauge
jumpslice_cache_resident_bytes 4096
`
	if got := buf.String(); got != want {
		t.Errorf("cache exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusEmptySnapshot renders nothing for an empty registry.
func TestPrometheusEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, NewRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty snapshot rendered %q", buf.String())
	}
}
