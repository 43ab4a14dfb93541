package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
)

// syncBuffer is a race-free log sink for the access-log tests.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func newLoggingTestServer(t *testing.T, s *server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func lastLine(out string) string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	return lines[len(lines)-1]
}

// requestsPage decodes a /debug/requests response.
type requestsPage struct {
	Written  uint64          `json:"written"`
	Capacity int             `json:"capacity"`
	Count    int             `json:"count"`
	Requests []obs.WideEvent `json:"requests"`
}

func getRequests(t *testing.T, base, query string) *requestsPage {
	t.Helper()
	resp, err := http.Get(base + "/debug/requests" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /debug/requests%s: status %d: %s", query, resp.StatusCode, data)
	}
	var page requestsPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return &page
}

func TestWideEventRecordsSliceRequest(t *testing.T) {
	_, ts := newTestServer(t)
	postSlice(t, ts, "var=positives&line=14", fig5(t))

	page := getRequests(t, ts.URL, "?endpoint=/slice")
	if page.Count != 1 || len(page.Requests) != 1 {
		t.Fatalf("count = %d, want one /slice event: %+v", page.Count, page)
	}
	ev := page.Requests[0]
	if ev.Method != "POST" || ev.Path != "/slice" || ev.Endpoint != "/slice" || ev.Status != 200 {
		t.Errorf("event identity: %+v", ev)
	}
	if ev.Outcome != "ok" || ev.ErrorCode != "" {
		t.Errorf("outcome = %q code = %q, want ok with no code", ev.Outcome, ev.ErrorCode)
	}
	if ev.Algo != "agrawal" || ev.Stmts == 0 || ev.SliceLines == 0 {
		t.Errorf("slicing annotations missing: algo=%q stmts=%d slice=%d", ev.Algo, ev.Stmts, ev.SliceLines)
	}
	if ev.Cache != "miss" {
		t.Errorf("cache tier = %q, want miss on first request", ev.Cache)
	}
	if ev.DurationNS <= 0 || ev.BytesOut <= 0 || ev.Req == 0 || ev.TimeNS == 0 {
		t.Errorf("exchange accounting: dur=%d bytes=%d req=%d ts=%d", ev.DurationNS, ev.BytesOut, ev.Req, ev.TimeNS)
	}
	// A cold analysis runs the full pipeline; its phase spans must be
	// teed into the wide event.
	if len(ev.Phases) == 0 {
		t.Fatal("cold /slice event carries no phase durations")
	}
	names := map[string]bool{}
	for _, p := range ev.Phases {
		names[p.Name] = true
		if p.NS < 0 {
			t.Errorf("phase %s has negative duration", p.Name)
		}
	}
	if !names["phase.analyze.cfg"] || !names["phase.analyze"] {
		t.Errorf("phases %v missing phase.analyze.cfg", ev.Phases)
	}

	// A second request on the program that the result tier has not
	// seen (explain is part of its key) is an analysis-cache hit: no
	// pipeline phases, tier "hit".
	postSlice(t, ts, "var=positives&line=14&explain=1", fig5(t))
	page = getRequests(t, ts.URL, "?endpoint=/slice")
	if page.Count != 2 {
		t.Fatalf("count = %d, want 2", page.Count)
	}
	hit := page.Requests[1]
	if hit.Cache != "hit" {
		t.Errorf("second request cache tier = %q, want hit", hit.Cache)
	}
	// An identical repeat of the first is a result-tier hit with the
	// first request's annotations.
	postSlice(t, ts, "var=positives&line=14", fig5(t))
	page = getRequests(t, ts.URL, "?endpoint=/slice")
	if page.Count != 3 {
		t.Fatalf("count = %d, want 3", page.Count)
	}
	replay := page.Requests[2]
	if replay.Cache != "result" || replay.Stmts != ev.Stmts || replay.SliceLines != ev.SliceLines || len(replay.Phases) != 0 {
		t.Errorf("identical repeat: cache %q stmts %d slice %d phases %v; want result, %d, %d, none",
			replay.Cache, replay.Stmts, replay.SliceLines, replay.Phases, ev.Stmts, ev.SliceLines)
	}
}

func TestWideEventErrorAndClientOutcomes(t *testing.T) {
	_, ts := newTestServer(t)
	// A 404 and a 400, then verify classification.
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/slice", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	page := getRequests(t, ts.URL, "")
	if len(page.Requests) != 2 {
		t.Fatalf("requests = %+v, want 2", page.Requests)
	}
	notFound, badReq := page.Requests[0], page.Requests[1]
	if notFound.Status != 404 || notFound.Outcome != "client_error" || notFound.ErrorCode != "not_found" {
		t.Errorf("404 event: %+v", notFound)
	}
	if notFound.Endpoint != "(other)" {
		t.Errorf("unknown path endpoint = %q, want (other)", notFound.Endpoint)
	}
	if badReq.Status != 400 || badReq.Outcome != "client_error" || badReq.ErrorCode != "bad_request" {
		t.Errorf("400 event: %+v", badReq)
	}
}

func TestRequestsFilters(t *testing.T) {
	_, ts := newTestServer(t)
	postSlice(t, ts, "var=positives&line=14", fig5(t))
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	postSlice(t, ts, "var=positives&line=14&explain=1", fig5(t))

	if page := getRequests(t, ts.URL, "?status=404"); page.Count != 1 || page.Requests[0].Status != 404 {
		t.Errorf("status filter: %+v", page)
	}
	if page := getRequests(t, ts.URL, "?endpoint=/slice"); page.Count != 2 {
		t.Errorf("endpoint filter: %+v", page)
	}
	if page := getRequests(t, ts.URL, "?endpoint=/slice&n=1"); page.Count != 1 || page.Requests[0].Cache != "hit" {
		t.Errorf("n filter must keep the newest: %+v", page)
	}
	// min_ms=0 admits everything; an absurd threshold admits nothing.
	// (Scoped to /slice: the /debug/requests reads above are themselves
	// in the ring by now.)
	if page := getRequests(t, ts.URL, "?endpoint=/slice&min_ms=0"); page.Count != 2 {
		t.Errorf("min_ms=0: count = %d, want 2", page.Count)
	}
	if page := getRequests(t, ts.URL, "?endpoint=/slice&min_ms=3600000"); page.Count != 0 {
		t.Errorf("min_ms=1h: count = %d, want 0", page.Count)
	}
	if page := getRequests(t, ts.URL, ""); page.Written < 3 || page.Capacity != 1024 {
		t.Errorf("ring accounting: written=%d cap=%d", page.Written, page.Capacity)
	}
	postSlice(t, ts, "var=positives&line=14", fig5(t))
	if page := getRequests(t, ts.URL, "?endpoint=/slice&n=1"); page.Count != 1 || page.Requests[0].Cache != "result" {
		t.Errorf("identical repeat must answer from the result tier: %+v", page)
	}
}

// TestRequestsOutcomeFilter pins the ?outcome= filter: it matches the
// event taxonomy exactly and composes with the other filters.
func TestRequestsOutcomeFilter(t *testing.T) {
	_, ts := newTestServer(t)
	postSlice(t, ts, "var=positives&line=14", fig5(t))
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/slice?var=positives&line=14", strings.NewReader(fig5(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Sliced-Fail", "panic")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if page := getRequests(t, ts.URL, "?outcome=ok"); page.Count < 1 {
		t.Errorf("outcome=ok: %+v", page)
	} else {
		for _, ev := range page.Requests {
			if ev.Outcome != "ok" {
				t.Errorf("outcome=ok returned %+v", ev)
			}
		}
	}
	if page := getRequests(t, ts.URL, "?outcome=client_error"); page.Count != 1 || page.Requests[0].Status != 404 {
		t.Errorf("outcome=client_error: %+v", page)
	}
	if page := getRequests(t, ts.URL, "?outcome=panic"); page.Count != 1 || page.Requests[0].Status != 500 {
		t.Errorf("outcome=panic: %+v", page)
	}
	if page := getRequests(t, ts.URL, "?outcome=shed"); page.Count != 0 {
		t.Errorf("outcome=shed should match nothing here: %+v", page)
	}
	// Composition: outcome + endpoint.
	if page := getRequests(t, ts.URL, "?outcome=ok&endpoint=/slice"); page.Count != 1 {
		t.Errorf("outcome=ok&endpoint=/slice: %+v", page)
	}
}

func TestRequestsFilterValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, query := range []string{
		"?status=bogus", "?status=99", "?status=600", "?status=",
		"?min_ms=-1", "?min_ms=fast", "?n=-2", "?n=abc", "?endpoint=",
		"?outcome=", "?outcome=OK", "?outcome=success", "?outcome=ok%20",
	} {
		resp, err := http.Get(ts.URL + "/debug/requests" + query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("GET /debug/requests%s: status %d, want 422", query, resp.StatusCode)
		}
		if eb := decodeEnvelope(t, resp); eb.Code != "invalid_parameter" {
			t.Errorf("GET /debug/requests%s: code %q, want invalid_parameter", query, eb.Code)
		}
		resp.Body.Close()
	}
}

func TestSLOViewAndExemplarTrace(t *testing.T) {
	cfg := testConfig()
	cfg.Objectives = obs.SLOObjectives{Quantile: 0.99, Latency: 50 * time.Millisecond, ErrRate: 0.01}
	_, ts := newTestServerConfig(t, cfg)
	// Three distinct programs, so every request analyzes and records
	// phases: a repeat would be a result-tier hit, and another
	// criterion on the same program an analysis hit, neither with
	// phases, and either may be the window's slowest request.
	for i := 0; i < 3; i++ {
		postSlice(t, ts, "var=positives&line=14", fmt.Sprintf("%s// request %d\n", fig5(t), i))
	}

	resp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.SLOSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	var slice *obs.EndpointSLO
	for i := range snap.Endpoints {
		if snap.Endpoints[i].Endpoint == "/slice" {
			slice = &snap.Endpoints[i]
		}
	}
	if slice == nil {
		t.Fatalf("no /slice endpoint in SLO snapshot: %+v", snap)
	}
	if slice.Requests != 3 || slice.Errors != 0 || slice.P50NS <= 0 {
		t.Errorf("/slice window: %+v", slice)
	}
	if len(slice.Exemplars) == 0 {
		t.Fatal("no exemplar for /slice")
	}

	// The exemplar — the window's slowest request — must resolve at
	// /debug/requests?id=: the aggregate-to-drill-down edge.
	ex := slice.Exemplars[0]
	if ex.Request == 0 || ex.DurNS <= 0 {
		t.Fatalf("exemplar: %+v", ex)
	}
	got := getRequests(t, ts.URL, fmt.Sprintf("?id=%d", ex.Request))
	if got.Count != 1 || got.Requests[0].Req != ex.Request || got.Requests[0].DurationNS != ex.DurNS {
		t.Fatalf("exemplar %+v resolved to %+v, want its one wide event", ex, got.Requests)
	}
	if len(got.Requests[0].Phases) == 0 {
		t.Error("exemplar's wide event carries no phases")
	}
}

func TestMetricsCarrySLOSeries(t *testing.T) {
	cfg := testConfig()
	cfg.Objectives = obs.SLOObjectives{Quantile: 0.99, Latency: 50 * time.Millisecond, ErrRate: 0.01}
	_, ts := newTestServerConfig(t, cfg)
	postSlice(t, ts, "var=positives&line=14", fig5(t))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	out := string(data)
	for _, want := range []string{
		`jumpslice_http_requests_total{endpoint="/slice"} 1`,
		"# TYPE jumpslice_http_p99_ns gauge",
		"# TYPE jumpslice_http_latency_burn gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestShedOutcomeInWideEvent(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflight = 1
	s, ts := newTestServerConfig(t, cfg)

	done := make(chan struct{})
	go func() {
		defer close(done)
		req, err := http.NewRequest("POST", ts.URL+"/slice?var=positives&line=14", strings.NewReader(fig5(t)))
		if err != nil {
			return
		}
		req.Header.Set("X-Sliced-Fail", "block")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocked request never took the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/slice?var=positives&line=14", "text/plain", strings.NewReader(fig5(t)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request: status %d, want 503", resp.StatusCode)
	}
	close(s.unblock)
	<-done

	page := getRequests(t, ts.URL, "?status=503")
	if page.Count != 1 || page.Requests[0].Outcome != "shed" || page.Requests[0].ErrorCode != "overloaded" {
		t.Fatalf("shed event: %+v", page.Requests)
	}
	// The SLO window books the shed separately from errors.
	sresp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var snap obs.SLOSnapshot
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, e := range snap.Endpoints {
		if e.Endpoint == "/slice" {
			if e.Sheds != 1 || e.Errors != 0 {
				t.Errorf("/slice window sheds=%d errors=%d, want 1 shed 0 errors", e.Sheds, e.Errors)
			}
		}
	}
}

func TestPanicOutcomeInWideEvent(t *testing.T) {
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
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	page := getRequests(t, ts.URL, "?status=500")
	if page.Count != 1 || page.Requests[0].Outcome != "panic" {
		t.Fatalf("panic event: %+v", page.Requests)
	}
}

func TestSessionPatchWideEvent(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/session", "text/plain", strings.NewReader(fig5(t)))
	if err != nil {
		t.Fatal(err)
	}
	var opened sessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&opened); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	body := `{"edit":{"op":"replace","line":1,"text":"sum = 1;"}}`
	req, err := http.NewRequest("PATCH",
		ts.URL+"/session/"+opened.Session+"?var=positives&line=14", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH: status %d", resp.StatusCode)
	}

	page := getRequests(t, ts.URL, "?endpoint=/session/{id}")
	if page.Count != 1 {
		t.Fatalf("session patch events: %+v", page)
	}
	ev := page.Requests[0]
	if ev.Incremental == "" {
		t.Error("patch event missing incremental tier")
	}
	if ev.Algo != "agrawal" || ev.Stmts == 0 || ev.SliceLines == 0 {
		t.Errorf("patch annotations: algo=%q stmts=%d slice=%d", ev.Algo, ev.Stmts, ev.SliceLines)
	}
	// The open event carries stmts too.
	open := getRequests(t, ts.URL, "?endpoint=/session")
	if open.Count != 1 || open.Requests[0].Stmts == 0 {
		t.Errorf("session open event: %+v", open.Requests)
	}
}

// The statement count is recorded once per analysis, so every event
// that reuses one — a cache hit, a spliced or reparsed session edit —
// must still stamp the program's exact count.
func TestWideEventStmtsMatchProgram(t *testing.T) {
	_, ts := newTestServer(t)
	prog, err := lang.Parse(fig5(t))
	if err != nil {
		t.Fatal(err)
	}
	want := lang.CountStatements(prog)
	postSlice(t, ts, "var=positives&line=14", fig5(t))
	postSlice(t, ts, "var=positives&line=14", fig5(t))

	resp, err := http.Post(ts.URL+"/session", "text/plain", strings.NewReader(fig5(t)))
	if err != nil {
		t.Fatal(err)
	}
	var opened sessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&opened); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if opened.Statements != want {
		t.Errorf("session open reports %d statements, want %d", opened.Statements, want)
	}
	for _, edit := range []struct{ ctype, body string }{
		{"application/json", `{"edit":{"op":"replace","line":1,"text":"sum = 1;"}}`},
		{"text/plain", fig5(t)},
	} {
		req, err := http.NewRequest("PATCH",
			ts.URL+"/session/"+opened.Session+"?var=positives&line=14", strings.NewReader(edit.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", edit.ctype)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PATCH %s: status %d", edit.ctype, resp.StatusCode)
		}
	}

	page := getRequests(t, ts.URL, "")
	var n int
	for _, ev := range page.Requests {
		if ev.Endpoint == "/slice" || strings.HasPrefix(ev.Endpoint, "/session") {
			n++
			if ev.Stmts != want {
				t.Errorf("%s %s (cache %q, incremental %q): stmts = %d, want %d",
					ev.Method, ev.Endpoint, ev.Cache, ev.Incremental, ev.Stmts, want)
			}
		}
	}
	if n != 5 {
		t.Errorf("%d slicing events, want 5", n)
	}
}

// TestAccessLogFormats pins the one access log format: a request's
// wide event as JSON on one line, which obs.ReadJSONL (slicequery
// -log) reads back byte for byte as the event /debug/requests holds.
func TestAccessLogFormats(t *testing.T) {
	var buf syncBuffer
	s := newServer(testConfig(), &buf)
	ts := newLoggingTestServer(t, s)
	postSlice(t, ts, "var=positives&line=14", fig5(t))
	ring := s.requests.Events()
	if len(ring) != 1 {
		t.Fatalf("%d events recorded, want 1", len(ring))
	}
	want, err := json.Marshal(&ring[0])
	if err != nil {
		t.Fatal(err)
	}
	var logged []obs.WideEvent
	if err := obs.ReadJSONL(strings.NewReader(buf.String()), func(ev *obs.WideEvent, raw []byte) error {
		logged = append(logged, *ev)
		if !bytes.Equal(raw, want) {
			t.Errorf("access log line\n%s\nwant the recorded event\n%s", raw, want)
		}
		return nil
	}); err != nil {
		t.Fatalf("reading the access log: %v\n%s", err, buf.String())
	}
	if len(logged) != 1 {
		t.Fatalf("%d wide events in the access log, want 1:\n%s", len(logged), buf.String())
	}
	ev := logged[0]
	if ev.Req != 1 || ev.Method != "POST" || ev.Path != "/slice" || ev.Status != 200 ||
		ev.Outcome != "ok" || ev.Cache != "miss" || ev.Algo != "agrawal" || ev.BytesOut <= 0 {
		t.Errorf("access log event: %+v", ev)
	}
	if len(ev.Phases) == 0 {
		t.Error("access log event missing phase durations")
	}
}

func TestBuildAndHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/build")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bd buildDetails
	if err := json.NewDecoder(resp.Body).Decode(&bd); err != nil {
		t.Fatal(err)
	}
	if bd.GoVersion == "" || bd.Revision == "" {
		t.Errorf("build details: %+v", bd)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h struct {
		Status   string `json:"status"`
		Revision string `json:"revision"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Revision != bd.Revision {
		t.Errorf("healthz = %+v, want ok with revision %q", h, bd.Revision)
	}
}

func TestPprofGatedByFlag(t *testing.T) {
	_, ts := newTestServer(t) // pprof off by default
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without -pprof: status %d, want 404", resp.StatusCode)
	}

	cfg := testConfig()
	cfg.Pprof = true
	_, pts := newTestServerConfig(t, cfg)
	resp, err = http.Get(pts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -pprof: status %d, want 200", resp.StatusCode)
	}
}

func TestEndpointOf(t *testing.T) {
	for path, want := range map[string]string{
		"/slice":            "/slice",
		"/session":          "/session",
		"/session/17":       "/session/{id}",
		"/session/17/extra": "/session/{id}",
		"/debug/slo":        "/debug/slo",
		"/debug/pprof/heap": "/debug/pprof",
		"/metrics":          "/metrics",
		"/wat":              "(other)",
		"/":                 "(other)",
	} {
		if got := endpointOf(path); got != want {
			t.Errorf("endpointOf(%q) = %q, want %q", path, got, want)
		}
	}
}
