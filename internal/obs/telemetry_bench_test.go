package obs

import (
	"testing"
	"time"
)

// The telemetry plane sits on every request; these benchmarks bound
// its per-request cost (the numbers quoted in DESIGN.md).

func BenchmarkSLOObserve(b *testing.B) {
	tr := NewSLOTracker(time.Minute, 10, SLOObjectives{
		Quantile: 0.99, Latency: 50 * time.Millisecond, ErrRate: 0.01,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Observe("/slice", 200, false, 2*time.Millisecond, uint64(i))
	}
}

func BenchmarkSLOObserveParallel(b *testing.B) {
	tr := NewSLOTracker(time.Minute, 10, SLOObjectives{
		Quantile: 0.99, Latency: 50 * time.Millisecond, ErrRate: 0.01,
	})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var i uint64
		for pb.Next() {
			i++
			tr.Observe("/slice", 200, false, 2*time.Millisecond, i)
		}
	})
}

func BenchmarkRequestLogRecord(b *testing.B) {
	l := NewRequestLog(1024)
	ev := WideEvent{
		Req: 1, Method: "POST", Path: "/slice", Endpoint: "/slice",
		Status: 200, DurationNS: 1e6, Outcome: "ok", Algo: "agrawal",
		Phases: []PhaseDur{{Name: "phase.analyze", NS: 1e6}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Req = uint64(i)
		l.Record(ev)
	}
}

func BenchmarkSpanLogTee(b *testing.B) {
	fr := NewFlightRecorder(1 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sl := &SpanLog{}
		tr := NewTracer(fr).ForRequest(uint64(i)).WithSpans(sl)
		Observer{Tr: tr}.StartSpan("phase.analyze").End()
	}
}

// BenchmarkFlightEventsWrapped snapshots a daemon-sized ring (65536
// slots) filled to half a lap past full, so the head sits mid-ring.
func BenchmarkFlightEventsWrapped(b *testing.B) {
	const capacity = 1 << 16
	fr := NewFlightRecorder(capacity)
	tr := NewTracer(fr)
	for i := 0; i < capacity+capacity/2; i++ {
		tr.Instant("e", int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(fr.Events()) != capacity {
			b.Fatal("short snapshot")
		}
	}
}

// BenchmarkFlightRequestEventsWrapped is the /debug/trace?id= lookup
// on the same wrapped daemon-sized ring, here written by requests of
// 40 events each: one request's events out of 65536 buffered.
func BenchmarkFlightRequestEventsWrapped(b *testing.B) {
	const capacity, perReq = 1 << 16, 40
	fr := NewFlightRecorder(capacity)
	for i := 0; i < capacity+capacity/2; i++ {
		NewTracer(fr).ForRequest(uint64(i/perReq)).Instant("e", int64(i))
	}
	req := uint64(capacity / perReq) // a request in the middle of the ring
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(fr.RequestEvents(req)) != perReq {
			b.Fatal("short request view")
		}
	}
}
