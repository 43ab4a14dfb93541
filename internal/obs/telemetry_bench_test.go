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

// BenchmarkSpanLogTee is one phase span ending into both sinks: the
// registry histogram and a fresh request's SpanLog.
func BenchmarkSpanLogTee(b *testing.B) {
	reg := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Observer{Reg: reg, Spans: &SpanLog{}}.StartSpan("phase.analyze").End()
	}
}
