package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"jumpslice/internal/obs"
	"jumpslice/internal/obs/spool"
)

// TestOneFilterThreeSurfaces serves a mixed set of requests to a
// daemon with a spool and a post-mortem directory, writes a bundle,
// and requires every filter to select the same request IDs from
// /debug/requests, a spool scan, and the bundle's requests.jsonl.
func TestOneFilterThreeSurfaces(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflight = 1
	cfg.SpoolDir = t.TempDir()
	cfg.PostmortemDir = t.TempDir()
	s, ts := newTestServerConfig(t, cfg)
	if err := s.openSpool(); err != nil {
		t.Fatal(err)
	}
	defer s.spool.Close()

	send := func(method, path, fail, body string) int {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if fail != "" {
			req.Header.Set("X-Sliced-Fail", fail)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	const slice = "/slice?var=positives&line=14"
	send("POST", slice, "", fig5(t))           // ok, cache miss
	send("POST", slice, "", fig5(t))           // ok, cache hit
	send("GET", "/nope", "", "")               // 404
	send("POST", slice, "", "x = ;")           // 422 invalid_program
	send("POST", slice, "panic", fig5(t))      // 500 panic
	send("GET", "/healthz", "", "")            // ok, another endpoint
	send("POST", "/slice", "", fig5(t))        // 400: no criterion
	send("GET", "/debug/requests?n=x", "", "") // 422 invalid_parameter

	// A request parked in the only admission slot for 30ms: the next
	// /slice is shed, and the parked one is slow enough for min_ms.
	done := make(chan struct{})
	go func() {
		defer close(done)
		send("POST", slice, "block", fig5(t))
	}()
	for deadline := time.Now().Add(5 * time.Second); len(s.sem) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("blocked request never took the admission slot")
		}
	}
	if got := send("POST", slice, "", fig5(t)); got != http.StatusServiceUnavailable {
		t.Fatalf("request behind the parked one: status %d, want 503", got)
	}
	time.Sleep(30 * time.Millisecond)
	close(s.unblock)
	<-done

	// The middleware records an event after the client may already
	// have its response; wait until every served request is recorded.
	last := uint64(s.reqID.Load())
	for deadline := time.Now().Add(5 * time.Second); s.requests.Written() < last || s.spool.Stats().Enqueued < int64(last); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("events recorded: ring %d, spool %d; want %d", s.requests.Written(), s.spool.Stats().Enqueued, last)
		}
	}
	bundle, err := s.writePostmortem("query") // syncs the spool first
	if err != nil {
		t.Fatal(err)
	}

	// Each surface's IDs, sorted, restricted to the traffic above (the
	// /debug/requests reads below add events of their own).
	served := func(ids []uint64) []uint64 {
		ids = slices.DeleteFunc(ids, func(id uint64) bool { return id > last })
		slices.Sort(ids)
		return ids
	}
	for _, c := range []struct {
		query string
		f     obs.Filter
	}{
		{"status=404", obs.Filter{Status: 404}},
		{"status=503", obs.Filter{Status: 503}},
		{"min_ms=25", obs.Filter{MinDurNS: 25 * int64(time.Millisecond)}},
		{"endpoint=/slice", obs.Filter{Endpoint: "/slice"}},
		{"endpoint=/debug/requests", obs.Filter{Endpoint: "/debug/requests"}},
		{"outcome=ok", obs.Filter{Outcome: obs.OutcomeOK}},
		{"outcome=client_error", obs.Filter{Outcome: obs.OutcomeClientError}},
		{"outcome=shed", obs.Filter{Outcome: obs.OutcomeShed}},
		{"outcome=panic", obs.Filter{Outcome: obs.OutcomePanic}},
		{"endpoint=/slice&outcome=ok&status=200&min_ms=0", obs.Filter{Endpoint: "/slice", Outcome: obs.OutcomeOK, Status: 200}},
	} {
		var ring []uint64
		for _, ev := range getRequests(t, ts.URL, "?"+c.query).Requests {
			ring = append(ring, ev.Req)
		}
		ring = served(ring)
		if len(ring) == 0 {
			t.Errorf("%s: /debug/requests matched nothing", c.query)
		}

		var spooled []uint64
		if err := spool.Scan(cfg.SpoolDir, c.f, func(ev *obs.WideEvent, _ []byte) error {
			spooled = append(spooled, ev.Req)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		spooled = served(spooled)

		f, err := os.Open(filepath.Join(bundle, "requests.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var bundled []uint64
		err = obs.ReadJSONL(f, &c.f, func(ev *obs.WideEvent, _ []byte) error {
			bundled = append(bundled, ev.Req)
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		bundled = served(bundled)

		if !slices.Equal(ring, spooled) || !slices.Equal(ring, bundled) {
			t.Errorf("%s: /debug/requests %v, spool %v, bundle %v", c.query, ring, spooled, bundled)
		}
	}
}
