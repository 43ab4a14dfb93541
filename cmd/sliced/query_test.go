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
)

// TestOneFilterThreeSurfaces serves a mixed set of requests to a
// daemon with a post-mortem directory, writes a bundle, and requires
// every filter to select the same request IDs from /debug/requests,
// the access log (read as slicequery -log reads it, past the panic's
// stack trace), and the bundle's requests.jsonl.
func TestOneFilterThreeSurfaces(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflight = 1
	cfg.PostmortemDir = t.TempDir()
	var logbuf syncBuffer
	s := newServer(cfg, &logbuf)
	ts := newLoggingTestServer(t, s)
	logged := func(f obs.Filter) []uint64 {
		t.Helper()
		var ids []uint64
		if err := obs.ReadJSONL(strings.NewReader(logbuf.String()), func(ev *obs.WideEvent, _ []byte) error {
			if f.Match(ev) {
				ids = append(ids, ev.Req)
			}
			return nil
		}); err != nil {
			t.Fatalf("reading the access log: %v", err)
		}
		return ids
	}

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

	// Each surface's IDs, sorted, restricted to the traffic above (the
	// /debug/requests reads below add events of their own).
	last := uint64(s.reqID.Load())
	served := func(ids []uint64) []uint64 {
		ids = slices.DeleteFunc(ids, func(id uint64) bool { return id > last })
		slices.Sort(ids)
		return ids
	}
	// The middleware records and logs an event after the client may
	// already have its response; wait until every served request is
	// in both.
	for deadline := time.Now().Add(5 * time.Second); s.requests.Written() < last || uint64(len(served(logged(obs.Filter{})))) < last; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("events recorded: ring %d, log %d; want %d", s.requests.Written(), len(served(logged(obs.Filter{}))), last)
		}
	}
	if !strings.Contains(logbuf.String(), "runtime/debug.Stack(") {
		t.Fatal("the access log holds no recovered panic's stack trace")
	}
	bundle, err := s.writePostmortem("query")
	if err != nil {
		t.Fatal(err)
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

		logs := served(logged(c.f))

		f, err := os.Open(filepath.Join(bundle, "requests.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var bundled []uint64
		err = obs.ReadJSONL(f, func(ev *obs.WideEvent, _ []byte) error {
			if c.f.Match(ev) {
				bundled = append(bundled, ev.Req)
			}
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		bundled = served(bundled)

		if !slices.Equal(ring, logs) || !slices.Equal(ring, bundled) {
			t.Errorf("%s: /debug/requests %v, access log %v, bundle %v", c.query, ring, logs, bundled)
		}
	}
}
