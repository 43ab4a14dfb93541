package obs

import (
	"runtime"
	"testing"
)

func TestRuntimeSamplerRecordsVitals(t *testing.T) {
	reg := NewRegistry()
	reg.SampleRuntime()
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

// TestRuntimeSamplerObservesGCPauses: each sample observes exactly the
// pauses of the GC cycles completed since the one before, so forced
// cycles show up once and a sample with no new cycle adds nothing.
func TestRuntimeSamplerObservesGCPauses(t *testing.T) {
	reg := NewRegistry()
	pauses := reg.Histogram("runtime.gc_pause_ns", UnitNanoseconds)
	cycles := reg.Gauge("runtime.gc_cycles")
	reg.SampleRuntime()
	for i := 0; i < 3; i++ {
		before, c0 := pauses.Count(), cycles.Value()
		for range i {
			runtime.GC()
		}
		reg.SampleRuntime()
		c1 := cycles.Value()
		if c1-c0 < int64(i) {
			t.Fatalf("%d forced GCs advanced runtime.gc_cycles by %d", i, c1-c0)
		}
		if got := pauses.Count() - before; int64(got) != c1-c0 {
			t.Errorf("%d new GC cycles observed %d pauses, want one each", c1-c0, got)
		}
	}
}

// TestScrubDropsRuntime pins the determinism contract: every
// runtime.* instrument — including histogram observation counts,
// which depend on GC scheduling — vanishes from a scrubbed snapshot,
// while pipeline instruments survive.
func TestScrubDropsRuntime(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("core.slices").Add(3)
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

// A nil registry is a valid, disabled sink: sampling records nowhere.
func TestRuntimeSamplerNilRegistry(t *testing.T) {
	var reg *Registry
	reg.SampleRuntime()
}
