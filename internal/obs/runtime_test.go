package obs

import (
	"runtime"
	"testing"
	"time"
)

func TestRuntimeSamplerRecordsVitals(t *testing.T) {
	reg := NewRegistry()
	s := StartRuntimeSampler(reg, 100*time.Millisecond)
	defer s.Stop()
	// The first sample is synchronous: gauges are populated before
	// StartRuntimeSampler returns.
	if got := reg.Gauge("runtime.goroutines").Value(); got < 1 {
		t.Errorf("runtime.goroutines = %d, want >= 1", got)
	}
	if got := reg.Gauge("runtime.gomaxprocs").Value(); got != int64(runtime.GOMAXPROCS(0)) {
		t.Errorf("runtime.gomaxprocs = %d, want %d", got, runtime.GOMAXPROCS(0))
	}
	if got := reg.Gauge("runtime.heap_alloc_bytes").Value(); got <= 0 {
		t.Errorf("runtime.heap_alloc_bytes = %d, want > 0", got)
	}
	if got := reg.Gauge("runtime.heap_sys_bytes").Value(); got <= 0 {
		t.Errorf("runtime.heap_sys_bytes = %d, want > 0", got)
	}
}

func TestRuntimeSamplerObservesGCPauses(t *testing.T) {
	reg := NewRegistry()
	s := StartRuntimeSampler(reg, 100*time.Millisecond)
	before := reg.Histogram("runtime.gc_pause_ns", UnitNanoseconds).Count()
	runtime.GC()
	runtime.GC()
	// Wait for the ticker to pick the cycles up.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Histogram("runtime.gc_pause_ns", UnitNanoseconds).Count() < before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("gc_pause_ns count stuck at %d after 2 forced GCs",
				reg.Histogram("runtime.gc_pause_ns", UnitNanoseconds).Count())
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.Stop()
	// Stop is idempotent and nil-safe.
	s.Stop()
	var nilS *RuntimeSampler
	nilS.Stop()
}

// TestScrubDropsRuntimeAndHTTP pins the determinism contract: every
// runtime.* and http.* instrument — including histogram observation
// counts, which depend on GC scheduling — vanishes from a scrubbed
// snapshot, while pipeline instruments survive.
func TestScrubDropsRuntimeAndHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("core.slices").Add(3)
	reg.Counter("http.incr.patched").Add(2)
	reg.Gauge("runtime.goroutines").Set(14)
	reg.Gauge("cache.resident_bytes").Set(100)
	reg.Histogram("runtime.gc_pause_ns", UnitNanoseconds).Observe(5)
	reg.Histogram("core.phase.cfg", UnitNanoseconds).Observe(7)

	s := reg.Snapshot().Scrub()
	for _, c := range s.Counters {
		if scrubbedName(c.Name) {
			t.Errorf("scrubbed snapshot kept counter %s", c.Name)
		}
	}
	for _, g := range s.Gauges {
		if scrubbedName(g.Name) {
			t.Errorf("scrubbed snapshot kept gauge %s", g.Name)
		}
	}
	for _, h := range s.Histograms {
		if scrubbedName(h.Name) {
			t.Errorf("scrubbed snapshot kept histogram %s", h.Name)
		}
	}
	find := func(names []string, want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	var counters, gauges, hists []string
	for _, c := range s.Counters {
		counters = append(counters, c.Name)
	}
	for _, g := range s.Gauges {
		gauges = append(gauges, g.Name)
	}
	for _, h := range s.Histograms {
		hists = append(hists, h.Name)
	}
	if !find(counters, "core.slices") || !find(gauges, "cache.resident_bytes") || !find(hists, "core.phase.cfg") {
		t.Errorf("scrub dropped deterministic instruments: counters=%v gauges=%v hists=%v", counters, gauges, hists)
	}
}

// A nil registry is a valid, disabled sink: the sampler runs and
// stops without recording anywhere.
func TestRuntimeSamplerNilRegistry(t *testing.T) {
	var reg *Registry
	StartRuntimeSampler(reg, 100*time.Millisecond).Stop()
}
