package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncWriter is a race-free frame sink for the live-mode test.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Len()
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

const stubMetrics = `# TYPE jumpslice_core_slices_total counter
jumpslice_core_slices_total 42
# TYPE jumpslice_cache_hits_total counter
jumpslice_cache_hits_total 30
# TYPE jumpslice_cache_misses_total counter
jumpslice_cache_misses_total 10
# TYPE jumpslice_cache_coalesced_total counter
jumpslice_cache_coalesced_total 10
# TYPE jumpslice_cache_resident_bytes gauge
jumpslice_cache_resident_bytes 1048576
# TYPE jumpslice_cache_entries gauge
jumpslice_cache_entries 3
# TYPE jumpslice_http_incr_patched_total counter
jumpslice_http_incr_patched_total 8
# TYPE jumpslice_http_incr_full_total counter
jumpslice_http_incr_full_total 2
# TYPE jumpslice_runtime_goroutines gauge
jumpslice_runtime_goroutines 12
# TYPE jumpslice_runtime_gomaxprocs gauge
jumpslice_runtime_gomaxprocs 8
# TYPE jumpslice_runtime_heap_alloc_bytes gauge
jumpslice_runtime_heap_alloc_bytes 2097152
# TYPE jumpslice_runtime_gc_pause_ns histogram
jumpslice_runtime_gc_pause_ns_bucket{le="+Inf"} 4
jumpslice_runtime_gc_pause_ns_sum 400000
jumpslice_runtime_gc_pause_ns_count 4
# TYPE jumpslice_http_requests_total counter
jumpslice_http_requests_total{endpoint="/slice"} 40
jumpslice_http_requests_total{endpoint="/metrics"} 2
# TYPE jumpslice_cluster_peers gauge
jumpslice_cluster_peers 2
# TYPE jumpslice_cluster_peers_up gauge
jumpslice_cluster_peers_up 1
# TYPE jumpslice_cluster_local_serves_total counter
jumpslice_cluster_local_serves_total 25
# TYPE jumpslice_cluster_proxied_total counter
jumpslice_cluster_proxied_total 10
# TYPE jumpslice_result_puts_total counter
jumpslice_result_puts_total 12
# TYPE jumpslice_result_resident_bytes gauge
jumpslice_result_resident_bytes 2048
# TYPE jumpslice_result_entries gauge
jumpslice_result_entries 4
# TYPE jumpslice_disk_segments gauge
jumpslice_disk_segments 2
# TYPE jumpslice_disk_entries gauge
jumpslice_disk_entries 9
# TYPE jumpslice_disk_resident_bytes gauge
jumpslice_disk_resident_bytes 4096
# TYPE jumpslice_disk_hits_total counter
jumpslice_disk_hits_total 3
`

const stubSLO = `{
  "window_ns": 60000000000, "bucket_ns": 6000000000, "buckets": 10,
  "objectives": {"quantile": 0.99, "latency_ns": 50000000, "err_rate": 0.01},
  "endpoints": [{
    "endpoint": "/slice", "requests": 40, "errors": 1, "sheds": 2,
    "error_rate": 0.025, "shed_rate": 0.05,
    "p50_ns": 2000000, "p90_ns": 9000000, "p99_ns": 80000000,
    "slow_over_objective": 1, "error_burn": 2.5, "latency_burn": 2.5,
    "total_requests": 40, "total_errors": 1, "total_sheds": 2,
    "exemplars": [{"bucket_start_ns": 1, "request": 17, "dur_ns": 80000000}]
  }]
}`

func stubServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(stubMetrics))
	})
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(stubSLO))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestOnceSnapshot(t *testing.T) {
	ts := stubServer(t)
	u, _ := url.Parse(ts.URL)

	var out strings.Builder
	if err := run(context.Background(), []string{"-once", "-addr", u.Host}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"SLO window 1m0s",
		"objectives p99<50ms, err<1%",
		"/slice",                         // the endpoint row
		"80.0ms",                         // its p99
		"2.5x",                           // burn rates
		"req=17",                         // the exemplar deep link
		"cache: 80.0% reuse",             // (30+10)/(30+10+10)
		"1.0MiB resident",                // byte formatting
		"8 patched / 0 partial / 2 full", // incremental mix
		"12 goroutines on 8 procs",
		"avg pause 100µs", // 400000/4 ns
		"cluster: 1/2 peers up, 25 local / 10 proxied\n",
		"results: 2.0KiB in 4 entries memory, disk 4.0KiB in 9 entries over 2 segments (3 warm hits)",
		"slices: 42 total",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("snapshot missing %q:\n%s", want, got)
		}
	}
	// -once must not emit terminal control sequences.
	if strings.Contains(got, "\x1b[") {
		t.Error("-once output contains ANSI escapes")
	}
}

func TestOnceFailsOnDeadDaemon(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-once", "-addr", "127.0.0.1:1"}, &out)
	if err == nil {
		t.Fatal("want an error against a dead daemon")
	}
}

func TestLiveModeStopsOnContextCancel(t *testing.T) {
	ts := stubServer(t)
	u, _ := url.Parse(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var out syncWriter
	go func() {
		done <- run(ctx, []string{"-addr", u.Host, "-interval", "10ms"}, &out)
	}()
	// Let it draw a few frames, then stop it.
	deadline := time.Now().Add(5 * time.Second)
	for out.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no frames drawn")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live mode did not stop on cancel")
	}
	if !strings.Contains(out.String(), "\x1b[H\x1b[2J") {
		t.Error("live mode should clear the screen between frames")
	}
}

func TestParseProm(t *testing.T) {
	m, err := parseProm(strings.NewReader(stubMetrics))
	if err != nil {
		t.Fatal(err)
	}
	if m["jumpslice_core_slices_total"] != 42 {
		t.Errorf("bare series: %v", m["jumpslice_core_slices_total"])
	}
	if m[`jumpslice_http_requests_total{endpoint="/slice"}`] != 40 {
		t.Error("labeled series must key by full name")
	}
	s := &sample{metrics: m}
	if got := s.get("jumpslice_http_requests_total"); got != 42 {
		t.Errorf("labeled sum = %v, want 42", got)
	}
	if got := s.get("jumpslice_nope"); got != 0 {
		t.Errorf("missing series = %v, want 0", got)
	}
}

func TestShortDur(t *testing.T) {
	for ns, want := range map[int64]string{
		0:          "0",
		500:        "500ns",
		2600:       "3µs",
		1500000:    "1.5ms",
		2000000000: "2.00s",
	} {
		if got := shortDur(ns); got != want {
			t.Errorf("shortDur(%d) = %q, want %q", ns, got, want)
		}
	}
}
