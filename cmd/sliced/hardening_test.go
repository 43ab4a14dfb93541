package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/progen"
)

// decodeEnvelope decodes and sanity-checks the structured error
// envelope every non-2xx response must carry.
func decodeEnvelope(t *testing.T, resp *http.Response) errorBody {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("%s: error Content-Type = %q, want application/json", resp.Request.URL, ct)
	}
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatalf("%s: error body is not the JSON envelope: %v", resp.Request.URL, err)
	}
	if ae.Error.Status != resp.StatusCode {
		t.Errorf("%s: envelope status %d != HTTP status %d", resp.Request.URL, ae.Error.Status, resp.StatusCode)
	}
	if ae.Error.Message == "" {
		t.Errorf("%s: envelope has no message", resp.Request.URL)
	}
	if ae.Error.RequestID == 0 {
		t.Errorf("%s: envelope has no request_id", resp.Request.URL)
	}
	return ae.Error
}

// bigProgram renders a generated unstructured program large enough
// that its analysis takes hundreds of milliseconds, with a valid
// write criterion to slice on.
func bigProgram(t *testing.T, stmts int) (src, critVar string, critLine int) {
	t.Helper()
	p := progen.Unstructured(progen.Config{Seed: 5, Stmts: stmts})
	wcs := progen.WriteCriteria(p)
	if len(wcs) == 0 {
		t.Fatal("generated program has no write criteria")
	}
	return lang.Format(p, lang.PrintOptions{}), wcs[len(wcs)-1].Var, wcs[len(wcs)-1].Line
}

// TestErrorEnvelopeTable pins every client-fault path of the serving
// surface to its status code and machine-readable error code. None of
// them may surface as a 500 or as a plain-text body.
func TestErrorEnvelopeTable(t *testing.T) {
	cfg := testConfig()
	cfg.MaxStmts = 10 // make fig5 (≈15 statements) oversized for one case
	small, tsSmall := newTestServerConfig(t, cfg)
	_ = small
	_, ts := newTestServer(t)

	cfgBody := testConfig()
	cfgBody.MaxBody = 64
	_, tsBody := newTestServerConfig(t, cfgBody)

	fig := fig5(t)
	cases := []struct {
		name       string
		url        string // relative, with query
		method     string
		body       string
		contentTyp string
		server     *httptest.Server
		wantStatus int
		wantCode   string
	}{
		{"missing var", "/slice?line=14", "POST", fig, "text/plain", ts, 400, "bad_request"},
		{"missing line", "/slice?var=positives", "POST", fig, "text/plain", ts, 400, "bad_request"},
		{"empty body", "/slice?var=positives&line=14", "POST", "", "text/plain", ts, 400, "bad_request"},
		{"bad line value", "/slice?var=positives&line=abc", "POST", fig, "text/plain", ts, 400, "bad_request"},
		{"undecodable json", "/slice?var=positives&line=14", "POST", "{not json", "application/json", ts, 400, "bad_request"},
		{"unknown algorithm", "/slice?var=positives&line=14&algo=magic", "POST", fig, "text/plain", ts, 400, "unknown_algorithm"},
		{"malformed source", "/slice?var=positives&line=14", "POST", "while (", "text/plain", ts, 422, "invalid_program"},
		{"out-of-range literal", "/slice?var=x&line=1", "POST", "x = 99999999999999999999;\nwrite(x);", "text/plain", ts, 422, "invalid_program"},
		{"unknown criterion var", "/slice?var=nope&line=14", "POST", fig, "text/plain", ts, 422, "slice_failed"},
		{"unknown criterion line", "/slice?var=positives&line=999", "POST", fig, "text/plain", ts, 422, "slice_failed"},
		{"oversized body", "/slice?var=positives&line=14", "POST", fig, "text/plain", tsBody, 413, "body_too_large"},
		{"oversized program", "/slice?var=positives&line=14", "POST", fig, "text/plain", tsSmall, 413, "program_too_large"},
		{"unknown failpoint", "/slice?var=positives&line=14", "POST", fig, "text/plain", ts, 400, "bad_request"},
		{"unknown path", "/nope", "GET", "", "", ts, 404, "not_found"},
		{"method not allowed on /slice", "/slice", "GET", "", "", ts, 405, "method_not_allowed"},
		{"method not allowed on /metrics", "/metrics", "POST", "", "text/plain", ts, 405, "method_not_allowed"},
		{"debug requests bad id", "/debug/requests?id=x", "GET", "", "", ts, 422, "invalid_parameter"},
		{"debug requests negative id", "/debug/requests?id=-3", "GET", "", "", ts, 422, "invalid_parameter"},
		{"debug requests empty id", "/debug/requests?id=", "GET", "", "", ts, 422, "invalid_parameter"},
		{"debug requests zero id", "/debug/requests?id=0", "GET", "", "", ts, 422, "invalid_parameter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, tc.server.URL+tc.url, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentTyp != "" {
				req.Header.Set("Content-Type", tc.contentTyp)
			}
			if tc.name == "unknown failpoint" {
				req.Header.Set("X-Sliced-Fail", "explode")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				data, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d (body: %s)", resp.StatusCode, tc.wantStatus, data)
			}
			eb := decodeEnvelope(t, resp)
			if eb.Code != tc.wantCode {
				t.Errorf("code %q, want %q (message: %s)", eb.Code, tc.wantCode, eb.Message)
			}
			if resp.StatusCode == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
				t.Error("405 without an Allow header")
			}
		})
	}
}

// TestOverloadSheds is the end-to-end load-shedding check: on a
// daemon with one admission slot, a second concurrent request is
// answered 503 with Retry-After while the in-flight one keeps its
// slot and completes successfully once unblocked.
func TestOverloadSheds(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflight = 1
	s, ts := newTestServerConfig(t, cfg)

	type result struct {
		status int
		err    error
	}
	first := make(chan result, 1)
	go func() {
		req, err := http.NewRequest("POST", ts.URL+"/slice?var=positives&line=14", strings.NewReader(fig5(t)))
		if err != nil {
			first <- result{0, err}
			return
		}
		req.Header.Set("X-Sliced-Fail", "block")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			first <- result{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- result{resp.StatusCode, nil}
	}()

	// Wait until the blocked request holds the only admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocked request never acquired the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/slice?var=positives&line=14", "text/plain", strings.NewReader(fig5(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 without a Retry-After header")
	}
	if eb := decodeEnvelope(t, resp); eb.Code != "overloaded" {
		t.Errorf("code %q, want overloaded", eb.Code)
	}
	if got := s.shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	// Release the in-flight request; it must complete normally — load
	// shedding never cancels admitted work.
	close(s.unblock)
	select {
	case r := <-first:
		if r.err != nil {
			t.Fatalf("blocked request failed: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("blocked request: status %d, want 200", r.status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked request did not complete after release")
	}
}

// TestClientDisconnectCancelsAnalysis is the end-to-end cancellation
// check: a client that goes away mid-analysis aborts the pipeline
// cooperatively, observable as a core.cancellations tick in the
// registry and in /metrics.
func TestClientDisconnectCancelsAnalysis(t *testing.T) {
	cfg := testConfig()
	cfg.Timeout = time.Minute // only the disconnect should cancel
	s, ts := newTestServerConfig(t, cfg)

	src, v, line := bigProgram(t, 8000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	url := fmt.Sprintf("%s/slice?var=%s&line=%d", ts.URL, v, line)
	req, err := http.NewRequestWithContext(ctx, "POST", url, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")

	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			err = fmt.Errorf("request completed with status %d despite disconnect", resp.StatusCode)
		}
		done <- err
	}()

	// Hang up as soon as the request's pipeline ends its first phase
	// span — analysis of an 8000-statement program has hundreds of
	// milliseconds still ahead of it at that point.
	cfgSpans := s.reg.Histogram("phase.analyze.cfg", obs.UnitNanoseconds)
	deadline := time.Now().Add(10 * time.Second)
	for cfgSpans.Count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no phase span ended; analysis never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	if err := <-done; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v, want context canceled", err)
	}

	// The pipeline notices asynchronously; poll for the counted
	// cancellation.
	cancellations := s.reg.Counter("core.cancellations")
	deadline = time.Now().Add(10 * time.Second)
	for cancellations.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("core.cancellations did not move after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(data), "jumpslice_core_cancellations_total") {
		t.Errorf("metrics exposition missing jumpslice_core_cancellations_total:\n%s", data)
	}
}

// TestRequestTimeoutAnswers503 pins the deadline path: a server whose
// per-request budget is already unmeetable answers 503 "timeout", not
// a hang and not a 4xx blaming the client.
func TestRequestTimeoutAnswers503(t *testing.T) {
	cfg := testConfig()
	cfg.Timeout = time.Nanosecond
	_, ts := newTestServerConfig(t, cfg)

	resp, err := http.Post(ts.URL+"/slice?var=positives&line=14", "text/plain", strings.NewReader(fig5(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if eb := decodeEnvelope(t, resp); eb.Code != "timeout" {
		t.Errorf("code %q, want timeout", eb.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("timeout 503 without a Retry-After header")
	}
}

// TestInjectedPanicIsolated pins panic isolation: a panic inside the
// handler answers 500 with the request ID, and the daemon serves the
// next request normally.
func TestInjectedPanicIsolated(t *testing.T) {
	_, ts := newTestServer(t)

	req, err := http.NewRequest("POST", ts.URL+"/slice?var=positives&line=14", strings.NewReader(fig5(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Sliced-Fail", "panic")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	eb := decodeEnvelope(t, resp)
	resp.Body.Close()
	if eb.Code != "internal" {
		t.Errorf("code %q, want internal", eb.Code)
	}
	if !strings.Contains(eb.Message, fmt.Sprint(eb.RequestID)) {
		t.Errorf("500 message %q does not name request %d", eb.Message, eb.RequestID)
	}

	// The daemon must keep serving.
	resp2, sr := postSlice(t, ts, "var=positives&line=14", fig5(t))
	defer resp2.Body.Close()
	if len(sr.Lines) == 0 {
		t.Error("request after the panic returned an empty slice")
	}
}

// TestFailpointsDisabledInProduction asserts the failure-injection
// header is inert unless the test-only flag armed it.
func TestFailpointsDisabledInProduction(t *testing.T) {
	cfg := testConfig()
	cfg.Failpoints = false
	_, ts := newTestServerConfig(t, cfg)

	req, err := http.NewRequest("POST", ts.URL+"/slice?var=positives&line=14", strings.NewReader(fig5(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Sliced-Fail", "panic")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d with failpoints disabled, want 200", resp.StatusCode)
	}
}

// TestReadBodyLengths: the body reader sizes its buffer from
// Content-Length but never trusts it. An honest length, a chunked
// body (no length), a body shorter or longer than its declared length
// all read exactly the bytes sent; any of them past the limit answers
// 413 body_too_large.
func TestReadBodyLengths(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBody = 64
	s := newServer(cfg, io.Discard)
	for _, c := range []struct {
		name     string
		body     string
		declared int64 // -1: chunked
		tooLarge bool
	}{
		{"honest", strings.Repeat("a", 40), 40, false},
		{"honest at the limit", strings.Repeat("a", 64), 64, false},
		{"chunked", strings.Repeat("b", 40), -1, false},
		{"chunked over the limit", strings.Repeat("b", 65), -1, true},
		{"shorter than declared", strings.Repeat("c", 10), 30, false},
		{"longer than declared", strings.Repeat("d", 50), 10, false},
		{"longer than declared, over the limit", strings.Repeat("e", 100), 10, true},
		{"declared over the limit", strings.Repeat("f", 100), 100, true},
	} {
		r := httptest.NewRequest(http.MethodPost, "/slice", strings.NewReader(c.body))
		r.ContentLength = c.declared
		body, err := s.readBody(httptest.NewRecorder(), r)
		if c.tooLarge {
			var he *httpError
			if !errors.As(err, &he) || he.code != "body_too_large" || he.status != http.StatusRequestEntityTooLarge {
				t.Errorf("%s: err = %v, want 413 body_too_large", c.name, err)
			}
			continue
		}
		if err != nil || string(body) != c.body {
			t.Errorf("%s: read %q, %v; want the %d bytes sent", c.name, body, err, len(c.body))
		}
	}

	// Over the wire: a body of unknown length goes out chunked.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, n := range []int{40, 65} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/session", io.MultiReader(strings.NewReader(strings.Repeat("x", n))))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// 40 bytes of "x" is not a program (422); 65 is over the limit.
		if want := map[int]int{40: http.StatusUnprocessableEntity, 65: http.StatusRequestEntityTooLarge}[n]; resp.StatusCode != want {
			t.Errorf("chunked %d-byte body: status %d, want %d", n, resp.StatusCode, want)
		}
	}
}

// TestReadBodyOneAllocation: with an honest Content-Length the body
// buffer is allocated once, not grown by doubling.
func TestReadBodyOneAllocation(t *testing.T) {
	s := newServer(testConfig(), io.Discard)
	src := strings.Repeat("x = x + 1;\n", 1000)
	sr := strings.NewReader(src)
	r := httptest.NewRequest(http.MethodPost, "/slice", nil)
	r.Body = io.NopCloser(sr)
	r.ContentLength = int64(len(src))
	w := httptest.NewRecorder()
	n := testing.AllocsPerRun(20, func() {
		sr.Reset(src)
		if body, err := s.readBody(w, r); err != nil || len(body) != len(src) {
			t.Fatalf("read %d bytes, %v", len(body), err)
		}
	})
	// The limit reader and the body buffer; io.ReadAll grows its
	// buffer from 512 bytes by doubling.
	if n > 2 {
		t.Errorf("readBody = %v allocations, want <= 2", n)
	}
}
