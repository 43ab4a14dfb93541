package obs

// Runtime health: Go runtime vitals recorded into the standard obs
// instruments when a scrape asks for them, so goroutine leaks, heap
// growth, and GC pressure show up on the same /metrics surface as the
// pipeline counters. Everything lands under the "runtime." prefix,
// which Snapshot.Scrub removes wholesale — the values depend on the
// machine and the scheduler, never on the workload's semantics.

import "runtime"

// SampleRuntime records the runtime's vitals as of now into r (a nil
// registry records nothing). A scrape calls it just before it reads
// r:
//
//	runtime.goroutines        gauge     live goroutine count
//	runtime.gomaxprocs        gauge     GOMAXPROCS
//	runtime.heap_alloc_bytes  gauge     live heap bytes
//	runtime.heap_sys_bytes    gauge     heap bytes held from the OS
//	runtime.next_gc_bytes     gauge     next GC target heap size
//	runtime.gc_cycles         gauge     completed GC cycles
//	runtime.gc_pause_ns       histogram individual GC stop-the-world
//	                                    pauses, each observed exactly
//	                                    once across calls
func (r *Registry) SampleRuntime() {
	if r == nil {
		return
	}
	// Reading the stats under the lock keeps the cycle cursor in step
	// with them when two scrapes overlap.
	r.gcMu.Lock()
	defer r.gcMu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Gauge("runtime.goroutines").Set(int64(runtime.NumGoroutine()))
	r.Gauge("runtime.gomaxprocs").Set(int64(runtime.GOMAXPROCS(0)))
	r.Gauge("runtime.heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	r.Gauge("runtime.heap_sys_bytes").Set(int64(ms.HeapSys))
	r.Gauge("runtime.next_gc_bytes").Set(int64(ms.NextGC))
	r.Gauge("runtime.gc_cycles").Set(int64(ms.NumGC))
	// PauseNs is a ring of the last 256 pauses indexed by cycle;
	// resynchronize when more than a full ring of cycles passed since
	// the last call.
	pause := r.Histogram("runtime.gc_pause_ns", UnitNanoseconds)
	if ms.NumGC-r.lastGC > 256 {
		r.lastGC = ms.NumGC - 256
	}
	for c := r.lastGC; c < ms.NumGC; c++ {
		pause.Observe(int64(ms.PauseNs[c%256]))
	}
	r.lastGC = ms.NumGC
}
