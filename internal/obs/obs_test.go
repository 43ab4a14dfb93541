package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(5)
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Add(5)
	g.Set(9)
	if g.Value() != 0 {
		t.Errorf("nil gauge value = %d", g.Value())
	}
	var h *Histogram
	h.Observe(42)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("nil histogram count/sum = %d/%d", h.Count(), h.Sum())
	}
	if d := (Span{}).End(); d != 0 {
		t.Errorf("zero span End = %v", d)
	}
}

// TestNilRegistryIsDisabled pins the disabled sinks: a nil registry
// hands out nil instruments, and the zero Observer hands out the zero
// Span without reading the clock.
func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil {
		t.Error("nil registry Counter != nil")
	}
	if r.Gauge("x") != nil {
		t.Error("nil registry Gauge != nil")
	}
	if r.Histogram("x", UnitCount) != nil {
		t.Error("nil registry Histogram != nil")
	}
	if sp := (Observer{}).StartSpan("x"); sp != (Span{}) {
		t.Error("zero Observer StartSpan not zero")
	}
	if sp := (Observer{Reg: r}).StartSpan("x"); sp != (Span{}) {
		t.Error("nil-registry Observer StartSpan not zero")
	}
}

func TestCounterAndHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Add(3)
	r.Counter("a").Add(4)
	if got := r.Counter("a").Value(); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	h := r.Histogram("sizes", UnitCount)
	for _, v := range []int64{0, 1, 2, 3, 4, 1 << 50} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(snap.Histograms))
	}
	// 0 → bucket le=0; 1 → le=1; 2,3 → le=3; 4 → le=7; 1<<50 → the
	// unbounded overflow bucket, whose explicit bound is +Inf.
	wantBuckets := map[int64]int64{0: 1, 1: 1, 3: 2, 7: 1, math.MaxInt64: 1}
	for _, b := range snap.Histograms[0].Buckets {
		if wantBuckets[b.Le] != b.Count {
			t.Errorf("bucket le=%d count=%d, want %d", b.Le, b.Count, wantBuckets[b.Le])
		}
		delete(wantBuckets, b.Le)
	}
	if len(wantBuckets) != 0 {
		t.Errorf("missing buckets: %v", wantBuckets)
	}
}

func TestSpanRecords(t *testing.T) {
	r := NewRegistry()
	sp := Observer{Reg: r}.StartSpan("phase.x")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("span duration = %v", d)
	}
	h := r.Histogram("phase.x", UnitNanoseconds)
	if h.Count() != 1 || h.Sum() < int64(time.Millisecond) {
		t.Errorf("span histogram count=%d sum=%d", h.Count(), h.Sum())
	}
}

func TestSnapshotDeterministicOrderAndScrub(t *testing.T) {
	build := func(order []string) []byte {
		r := NewRegistry()
		for _, n := range order {
			r.Counter(n).Add(1)
		}
		r.Histogram("z.sizes", UnitCount).Observe(9)
		sp := Observer{Reg: r}.StartSpan("a.phase")
		sp.End()
		data, err := json.Marshal(r.Snapshot().Scrub())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := build([]string{"b", "a", "c"})
	b := build([]string{"c", "b", "a"})
	if string(a) != string(b) {
		t.Errorf("snapshots differ:\n%s\n%s", a, b)
	}
}

// TestScrubFoldsCacheSplit asserts Scrub merges the analysis cache's
// scheduling-dependent hit/coalesced split into one reused counter, so
// two runs whose reuses landed differently scrub identically.
func TestScrubFoldsCacheSplit(t *testing.T) {
	build := func(hits, coalesced int64) []byte {
		r := NewRegistry()
		r.Counter("cache.hits").Add(hits)
		r.Counter("cache.coalesced").Add(coalesced)
		r.Counter("cache.misses").Add(3)
		data, err := json.Marshal(r.Snapshot().Scrub())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := build(7, 1), build(2, 6)
	if string(a) != string(b) {
		t.Errorf("scrubbed snapshots differ on the hit/coalesced split:\n%s\n%s", a, b)
	}
	if !strings.Contains(string(a), `"cache.reused"`) || strings.Contains(string(a), `"cache.hits"`) {
		t.Errorf("scrub did not fold into cache.reused:\n%s", a)
	}
	// Snapshots without cache counters are untouched.
	r := NewRegistry()
	r.Counter("other").Add(1)
	data, err := json.Marshal(r.Snapshot().Scrub())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "cache.reused") {
		t.Errorf("scrub invented a cache.reused counter:\n%s", data)
	}
}

// TestScrubDropsEnvironmentPrefixes asserts Scrub removes every
// instrument whose whole existence is machine/scheduling-dependent:
// runtime health samples and the cluster, disk and result tiers'
// accounting.
func TestScrubDropsEnvironmentPrefixes(t *testing.T) {
	r := NewRegistry()
	r.Counter("jumps.analyzed").Add(4)
	r.Counter("runtime.gc_cycles").Add(2)
	r.Counter("cluster.proxied").Add(7)
	r.Counter("disk.dropped").Add(1)
	r.Gauge("disk.resident_bytes").Set(4096)
	r.Gauge("result.entries").Set(3)
	r.Histogram("cluster.hop_ns", UnitCount).Observe(5)
	data, err := json.Marshal(r.Snapshot().Scrub())
	if err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"runtime.", "cluster.", "disk.", "result."} {
		if strings.Contains(string(data), gone) {
			t.Errorf("scrubbed snapshot still carries %s instruments:\n%s", gone, data)
		}
	}
	if !strings.Contains(string(data), "jumps.analyzed") {
		t.Errorf("scrub dropped a deterministic counter:\n%s", data)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Add(1)
				r.Histogram("h", UnitCount).Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared = %d, want 8000", got)
	}
	if got := r.Histogram("h", UnitCount).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

// TestGauge exercises the gauge's level semantics: Add moves in both
// directions, Set replaces, snapshots carry the current level, and the
// registry hands back the same gauge per name.
func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("cache.resident_bytes")
	g.Add(100)
	g.Add(-30)
	if g.Value() != 70 {
		t.Errorf("gauge value = %d, want 70", g.Value())
	}
	g.Set(5)
	if g.Value() != 5 {
		t.Errorf("gauge value after Set = %d, want 5", g.Value())
	}
	if r.Gauge("cache.resident_bytes") != g {
		t.Error("registry did not reuse the named gauge")
	}
	snap := r.Snapshot()
	if len(snap.Gauges) != 1 || snap.Gauges[0].Name != "cache.resident_bytes" || snap.Gauges[0].Value != 5 {
		t.Errorf("snapshot gauges = %+v", snap.Gauges)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Gauges) != 1 || back.Gauges[0].Value != 5 {
		t.Errorf("gauges do not round-trip: %+v", back.Gauges)
	}
}
