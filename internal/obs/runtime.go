package obs

// Runtime health: a sampler goroutine recording Go runtime vitals
// into the standard obs instruments, so goroutine leaks, heap growth,
// and GC pressure show up on the same /metrics surface as the
// pipeline counters. Everything lands under the "runtime." prefix,
// which Snapshot.Scrub removes wholesale — the values depend on the
// machine and the scheduler, never on the workload's semantics.

import (
	"runtime"
	"time"
)

// RuntimeSampler periodically samples runtime vitals into a Registry
// (a nil one records nothing).
// Construct with StartRuntimeSampler; call Stop to halt the sampling
// goroutine (idempotent on a nil sampler).
type RuntimeSampler struct {
	stop chan struct{}
	done chan struct{}
}

// StartRuntimeSampler samples immediately and then every interval
// (minimum 100ms) until Stop, recording:
//
//	runtime.goroutines        gauge     live goroutine count
//	runtime.gomaxprocs        gauge     GOMAXPROCS
//	runtime.heap_alloc_bytes  gauge     live heap bytes
//	runtime.heap_sys_bytes    gauge     heap bytes held from the OS
//	runtime.next_gc_bytes     gauge     next GC target heap size
//	runtime.gc_cycles         gauge     completed GC cycles
//	runtime.gc_pause_ns       histogram individual GC stop-the-world
//	                                    pauses (each pause observed
//	                                    exactly once)
func StartRuntimeSampler(rec *Registry, interval time.Duration) *RuntimeSampler {
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	goroutines := rec.Gauge("runtime.goroutines")
	gomaxprocs := rec.Gauge("runtime.gomaxprocs")
	heapAlloc := rec.Gauge("runtime.heap_alloc_bytes")
	heapSys := rec.Gauge("runtime.heap_sys_bytes")
	nextGC := rec.Gauge("runtime.next_gc_bytes")
	gcCycles := rec.Gauge("runtime.gc_cycles")
	gcPause := rec.Histogram("runtime.gc_pause_ns", UnitNanoseconds)

	s := &RuntimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	var lastGC uint32
	sample := func() {
		goroutines.Set(int64(runtime.NumGoroutine()))
		gomaxprocs.Set(int64(runtime.GOMAXPROCS(0)))
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapAlloc.Set(int64(ms.HeapAlloc))
		heapSys.Set(int64(ms.HeapSys))
		nextGC.Set(int64(ms.NextGC))
		gcCycles.Set(int64(ms.NumGC))
		// PauseNs is a ring of the last 256 pauses indexed by cycle;
		// observe each new pause exactly once, resynchronizing if more
		// than a full ring of cycles passed between samples.
		if ms.NumGC-lastGC > 256 {
			lastGC = ms.NumGC - 256
		}
		for c := lastGC; c < ms.NumGC; c++ {
			gcPause.Observe(int64(ms.PauseNs[c%256]))
		}
		lastGC = ms.NumGC
	}
	sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return s
}

// Stop halts the sampling goroutine and waits for it to exit. Safe to
// call on a nil sampler and more than once.
func (s *RuntimeSampler) Stop() {
	if s == nil {
		return
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}
