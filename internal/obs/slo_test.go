package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// testClock is an injectable clock for deterministic window rotation.
type testClock struct {
	mu sync.Mutex
	at time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.at = c.at.Add(d)
	c.mu.Unlock()
}

func newTestTracker(obj SLOObjectives) (*SLOTracker, *testClock) {
	t := NewSLOTracker(60*time.Second, 10, obj)
	c := &testClock{at: time.Unix(1000, 0)}
	t.now = c.now
	return t, c
}

func TestParseObjectives(t *testing.T) {
	o, err := ParseObjectives("p99=50ms,err=1%")
	if err != nil {
		t.Fatal(err)
	}
	if o.Quantile != 0.99 || o.Latency != 50*time.Millisecond || o.ErrRate != 0.01 {
		t.Fatalf("parsed %+v", o)
	}
	o, err = ParseObjectives("err=0.005")
	if err != nil || o.ErrRate != 0.005 {
		t.Fatalf("fraction form: %+v, %v", o, err)
	}
	if o, err := ParseObjectives(""); err != nil || o != (SLOObjectives{}) {
		t.Fatalf("empty spec: %+v, %v", o, err)
	}
	for _, bad := range []string{"p99", "p99=-1ms", "p99=50ms,p50=1ms", "err=200%", "err=0", "p42=1ms", "wat=1"} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) accepted", bad)
		}
	}
}

func TestSLOWindowCountsAndRates(t *testing.T) {
	tr, _ := newTestTracker(SLOObjectives{Quantile: 0.99, Latency: 50 * time.Millisecond, ErrRate: 0.01})
	for i := 0; i < 96; i++ {
		tr.Observe("/slice", 200, false, 2*time.Millisecond, uint64(i+1))
	}
	tr.Observe("/slice", 500, false, time.Millisecond, 97)
	tr.Observe("/slice", 503, true, time.Microsecond, 98) // shed, not an error
	tr.Observe("/slice", 200, false, 80*time.Millisecond, 99)
	tr.Observe("/slice", 200, false, 200*time.Millisecond, 100)

	s := tr.Snapshot()
	if len(s.Endpoints) != 1 {
		t.Fatalf("endpoints = %+v", s.Endpoints)
	}
	e := s.Endpoints[0]
	if e.Endpoint != "/slice" || e.Requests != 100 || e.Errors != 1 || e.Sheds != 1 {
		t.Fatalf("window totals: %+v", e)
	}
	if e.ErrorRate != 0.01 || e.ShedRate != 0.01 {
		t.Fatalf("rates: err=%v shed=%v", e.ErrorRate, e.ShedRate)
	}
	// 2 of 100 over the 50ms objective → slow fraction 0.02, budget
	// 0.01 → latency burn 2×; error rate 1% at a 1% objective → 1×.
	if e.Slow != 2 {
		t.Fatalf("slow = %d, want 2", e.Slow)
	}
	if e.LatencyBurn < 1.99 || e.LatencyBurn > 2.01 {
		t.Fatalf("latency burn = %v, want ~2", e.LatencyBurn)
	}
	if e.ErrorBurn < 0.99 || e.ErrorBurn > 1.01 {
		t.Fatalf("error burn = %v, want ~1", e.ErrorBurn)
	}
	// Percentiles: p50 is in the 2ms bucket's range, p99 must be in
	// the slow tail (>= 80ms observed).
	if e.P50NS < int64(time.Millisecond) || e.P50NS >= int64(8*time.Millisecond) {
		t.Errorf("p50 = %s", time.Duration(e.P50NS))
	}
	if e.P99NS < int64(80*time.Millisecond) {
		t.Errorf("p99 = %s, want >= 80ms", time.Duration(e.P99NS))
	}
	if e.TotalRequests != 100 || e.TotalErrors != 1 || e.TotalSheds != 1 {
		t.Fatalf("cumulative totals: %+v", e)
	}
}

// TestSLOExemplarTracksSlowest checks each bucket remembers its
// slowest request ID, the aggregate→drill-down edge.
func TestSLOExemplarTracksSlowest(t *testing.T) {
	tr, clock := newTestTracker(SLOObjectives{})
	tr.Observe("/slice", 200, false, time.Millisecond, 1)
	tr.Observe("/slice", 200, false, 90*time.Millisecond, 2) // the spike
	tr.Observe("/slice", 200, false, 3*time.Millisecond, 3)
	clock.advance(6 * time.Second) // next bucket
	tr.Observe("/slice", 200, false, 4*time.Millisecond, 4)

	e := tr.Snapshot().Endpoints[0]
	if len(e.Exemplars) != 2 {
		t.Fatalf("exemplars = %+v, want 2 buckets", e.Exemplars)
	}
	if e.Exemplars[0].Request != 2 || e.Exemplars[0].DurNS != int64(90*time.Millisecond) {
		t.Fatalf("bucket 0 exemplar = %+v, want request 2 at 90ms", e.Exemplars[0])
	}
	if e.Exemplars[1].Request != 4 {
		t.Fatalf("bucket 1 exemplar = %+v, want request 4", e.Exemplars[1])
	}
	if e.Exemplars[0].BucketStartNS >= e.Exemplars[1].BucketStartNS {
		t.Error("exemplars not ordered by bucket start")
	}
}

// TestSLOWindowExpiry checks old buckets rotate out of the window
// while cumulative totals survive.
func TestSLOWindowExpiry(t *testing.T) {
	tr, clock := newTestTracker(SLOObjectives{})
	tr.Observe("/slice", 500, false, time.Millisecond, 1)
	clock.advance(61 * time.Second) // a full window later
	tr.Observe("/slice", 200, false, time.Millisecond, 2)

	e := tr.Snapshot().Endpoints[0]
	if e.Requests != 1 || e.Errors != 0 {
		t.Fatalf("window after expiry: %+v, want 1 request 0 errors", e)
	}
	if e.TotalRequests != 2 || e.TotalErrors != 1 {
		t.Fatalf("cumulative after expiry: %+v, want 2 requests 1 error", e)
	}
}

// TestSLOBucketRecycling checks a bucket slot is reset in place when
// its epoch comes around again, not merged with stale contents.
func TestSLOBucketRecycling(t *testing.T) {
	tr, clock := newTestTracker(SLOObjectives{})
	tr.Observe("/slice", 200, false, time.Millisecond, 1)
	// Exactly one window later the same slot is reused.
	clock.advance(60 * time.Second)
	tr.Observe("/slice", 200, false, time.Millisecond, 2)
	e := tr.Snapshot().Endpoints[0]
	if e.Requests != 1 {
		t.Fatalf("recycled bucket merged stale data: window requests = %d, want 1", e.Requests)
	}
}

func TestSLONilSafe(t *testing.T) {
	var tr *SLOTracker
	tr.Observe("/slice", 200, false, time.Millisecond, 1)
	if tr.Snapshot() != nil {
		t.Error("nil tracker Snapshot should be nil")
	}
	if tr.Objectives() != (SLOObjectives{}) {
		t.Error("nil tracker Objectives should be zero")
	}
}

func TestSLOConcurrentObserve(t *testing.T) {
	tr, _ := newTestTracker(SLOObjectives{Quantile: 0.99, Latency: time.Millisecond})
	var wg sync.WaitGroup
	const workers, per = 8, 400
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ep := "/slice"
				if i%3 == 0 {
					ep = "/session"
				}
				tr.Observe(ep, 200, false, time.Duration(i)*time.Microsecond, uint64(w*per+i))
				if i%64 == 0 {
					tr.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := tr.Snapshot()
	var total int64
	for _, e := range s.Endpoints {
		total += e.Requests
	}
	if total != workers*per {
		t.Fatalf("window total = %d, want %d", total, workers*per)
	}
}

func TestWriteSLOPrometheus(t *testing.T) {
	tr, _ := newTestTracker(SLOObjectives{Quantile: 0.99, Latency: 50 * time.Millisecond, ErrRate: 0.01})
	tr.Observe("/slice", 200, false, 2*time.Millisecond, 1)
	tr.Observe("/slice", 500, false, time.Millisecond, 2)
	tr.Observe("/session/{id}", 200, false, time.Millisecond, 3)

	var sb strings.Builder
	if err := WriteSLOPrometheus(&sb, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE jumpslice_http_requests_total counter",
		`jumpslice_http_requests_total{endpoint="/slice"} 2`,
		`jumpslice_http_errors_total{endpoint="/slice"} 1`,
		`jumpslice_http_requests_total{endpoint="/session/{id}"} 1`,
		"# TYPE jumpslice_http_p99_ns gauge",
		`jumpslice_http_window_error_ratio{endpoint="/slice"} 0.5`,
		"# TYPE jumpslice_http_error_burn gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Without objectives no burn series appear.
	tr2, _ := newTestTracker(SLOObjectives{})
	tr2.Observe("/slice", 200, false, time.Millisecond, 1)
	sb.Reset()
	if err := WriteSLOPrometheus(&sb, tr2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "burn") {
		t.Errorf("burn series without objectives:\n%s", sb.String())
	}
	// Nil and empty snapshots write nothing.
	sb.Reset()
	if err := WriteSLOPrometheus(&sb, nil); err != nil || sb.Len() != 0 {
		t.Errorf("nil snapshot wrote %q (%v)", sb.String(), err)
	}
}

// TestNearestRank checks the ⌈q·n⌉-th smallest value against integer
// arithmetic for every sample count up to 2000, including the counts
// where q·n is an integer that float64 cannot represent exactly.
func TestNearestRank(t *testing.T) {
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	for _, q := range []struct {
		f        float64
		num, den int
	}{{0.5, 1, 2}, {0.9, 9, 10}, {0.95, 19, 20}, {0.99, 99, 100}, {0.999, 999, 1000}} {
		for n := 1; n <= len(vals); n++ {
			want := int64((q.num*n + q.den - 1) / q.den)
			if got := NearestRank(vals[:n], q.f); got != want {
				t.Fatalf("NearestRank(1..%d, %g) = %d, want %d", n, q.f, got, want)
			}
		}
	}
	if got := NearestRank(nil, 0.99); got != 0 {
		t.Errorf("empty input: %d", got)
	}
}
