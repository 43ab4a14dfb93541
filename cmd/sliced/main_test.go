package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"jumpslice/internal/obs"
)

// fig5 is the Figure 5-a program (continue version): the slice on
// positives@14 must include the continue at line 7 but not the one at
// line 11.
func fig5(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/fig5-a.mc")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// testConfig is the default daemon configuration for tests, with
// failpoints armed.
func testConfig() config {
	cfg := defaultConfig()
	cfg.Failpoints = true
	return cfg
}

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	return newTestServerConfig(t, testConfig())
}

func newTestServerConfig(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg, io.Discard)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSlice(t *testing.T, ts *httptest.Server, query, body string) (*http.Response, *sliceResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/slice?"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /slice?%s: status %d: %s", query, resp.StatusCode, data)
	}
	var sr sliceResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, &sr
}

func TestSliceFig5RawBody(t *testing.T) {
	_, ts := newTestServer(t)
	resp, sr := postSlice(t, ts, "var=positives&line=14", fig5(t))

	if id := resp.Header.Get("X-Request-ID"); id == "" {
		t.Error("missing X-Request-ID header")
	}
	if sr.Algorithm != "agrawal" {
		t.Errorf("algorithm = %q, want agrawal", sr.Algorithm)
	}
	has := func(line int) bool {
		for _, l := range sr.Lines {
			if l == line {
				return true
			}
		}
		return false
	}
	// The paper's Figure 5 point: continue at 7 is needed, 11 is not.
	if !has(7) {
		t.Errorf("slice %v should include continue at line 7", sr.Lines)
	}
	if has(11) || has(10) {
		t.Errorf("slice %v should not include lines 10-11", sr.Lines)
	}
	if len(sr.JumpLines) != 1 || sr.JumpLines[0] != 7 {
		t.Errorf("jump_lines = %v, want [7]", sr.JumpLines)
	}
	if sr.Text == "" || !strings.Contains(sr.Text, "continue") {
		t.Errorf("materialized text should contain the kept continue:\n%s", sr.Text)
	}
}

func TestSliceJSONBodyWithExplain(t *testing.T) {
	_, ts := newTestServer(t)
	body, err := json.Marshal(sliceRequest{Source: fig5(t), Var: "positives", Line: 14})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/slice?explain=1", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr sliceResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Reasons) == 0 {
		t.Error("explain=1 response has no reasons")
	}
	found := false
	for _, rs := range sr.Reasons[7] {
		if strings.Contains(rs, "jump-rule") {
			found = true
		}
	}
	if !found {
		t.Errorf("line 7 reasons %v should include a jump-rule record", sr.Reasons[7])
	}
	if !strings.Contains(sr.Listing, "continue") {
		t.Errorf("listing should show the kept continue:\n%s", sr.Listing)
	}
}

func TestSliceAlgorithms(t *testing.T) {
	_, ts := newTestServer(t)
	src := fig5(t)
	for algo, wantJumps := range map[string]int{
		"agrawal": 1, "agrawal-lst": 1, "structured": 1, "conservative": 1, "conventional": 0,
	} {
		_, sr := postSlice(t, ts, "var=positives&line=14&algo="+algo, src)
		if len(sr.JumpLines) != wantJumps {
			t.Errorf("%s: jump_lines = %v, want %d jumps", algo, sr.JumpLines, wantJumps)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
	postSlice(t, ts, "var=positives&line=14", fig5(t))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text v0.0.4", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"jumpslice_core_slices_total 1",
		"# TYPE jumpslice_phase_analyze_ns histogram",
		"jumpslice_phase_analyze_ns_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

func TestFlightJSONL(t *testing.T) {
	s, ts := newTestServer(t)
	postSlice(t, ts, "var=positives&line=14", fig5(t))

	resp, err := http.Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Flight-Written"); got == "" || got == "0" {
		t.Errorf("X-Flight-Written = %q, want a positive count", got)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	kinds := map[string]bool{}
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines+1, err)
		}
		kinds[ev["kind"].(string)] = true
		lines++
	}
	if lines == 0 {
		t.Fatal("flight journal is empty after a slice request")
	}
	if want := int(s.fr.Written()); lines != want {
		t.Errorf("flight journal has %d lines, recorder wrote %d", lines, want)
	}
	for _, k := range []string{"span", "jump-admitted", "slice"} {
		if !kinds[k] {
			t.Errorf("flight journal missing %q events (kinds: %v)", k, kinds)
		}
	}

	// ?n= caps the journal to the most recent events.
	resp2, err := http.Get(ts.URL + "/debug/flight?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	data, _ := io.ReadAll(resp2.Body)
	if got := strings.Count(strings.TrimSpace(string(data)), "\n") + 1; got != 2 {
		t.Errorf("flight?n=2 returned %d lines", got)
	}
}

// TestTraceChromeSchema is the acceptance check: the chrome-trace for
// a fig5 slice request must be schema-valid trace_event JSON.
func TestTraceChromeSchema(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := postSlice(t, ts, "var=positives&line=14", fig5(t))
	id := resp.Header.Get("X-Request-ID")

	tresp, err := http.Get(ts.URL + "/debug/trace?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace?id=%s: status %d", id, tresp.StatusCode)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   *float64       `json:"ts"`
			Pid  *int           `json:"pid"`
			Tid  *uint64        `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	sawSpan, sawJump := false, false
	for i, ev := range trace.TraceEvents {
		if ev.Name == "" || ev.TS == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d missing required fields: %+v", i, ev)
		}
		switch ev.Ph {
		case "X":
			sawSpan = true
		case "i":
			if ev.S != "t" {
				t.Errorf("instant event %d has scope %q, want t", i, ev.S)
			}
		default:
			t.Errorf("event %d has unknown phase %q", i, ev.Ph)
		}
		if ev.Name == "fig7.jump" || ev.Args["nearest_pd"] != nil {
			sawJump = true
		}
		if fmt.Sprint(*ev.Tid) != id {
			t.Errorf("event %d has tid %d, want request id %s", i, *ev.Tid, id)
		}
	}
	if !sawSpan {
		t.Error("trace has no complete (ph=X) span events")
	}
	if !sawJump {
		t.Error("trace has no jump-admission evidence")
	}
}

func TestTraceUnknownRequest(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/trace?id=424242")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown request id: status %d, want 404", resp.StatusCode)
	}
}

func TestSliceErrors(t *testing.T) {
	_, ts := newTestServer(t)
	post := func(query, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/slice?"+query, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("line=14", fig5(t)); got != http.StatusBadRequest {
		t.Errorf("missing var: status %d, want 400", got)
	}
	if got := post("var=positives", fig5(t)); got != http.StatusBadRequest {
		t.Errorf("missing line: status %d, want 400", got)
	}
	if got := post("var=positives&line=14", ""); got != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", got)
	}
	if got := post("var=positives&line=14", "while ("); got != http.StatusUnprocessableEntity {
		t.Errorf("parse error: status %d, want 422", got)
	}
	if got := post("var=positives&line=14&algo=magic", fig5(t)); got != http.StatusBadRequest {
		t.Errorf("unknown algorithm: status %d, want 400", got)
	}
	resp, err := http.Get(ts.URL + "/slice")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /slice: status %d, want 405", resp.StatusCode)
	}
}

// TestConcurrentSlices exercises the full handler chain — per-request
// tracers publishing into the shared flight recorder, shared metrics
// registry — from many goroutines; the CI race job runs it under
// -race.
func TestConcurrentSlices(t *testing.T) {
	const workers, perWorker = 8, 6
	// Enough admission slots for every worker: this test exercises
	// data races, not load shedding, and the default 2×GOMAXPROCS can
	// shed on single-CPU machines.
	cfg := testConfig()
	cfg.MaxInflight = workers
	s, ts := newTestServerConfig(t, cfg)
	src := fig5(t)
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(ts.URL+"/slice?var=positives&line=14", "text/plain", strings.NewReader(src))
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.reqID.Load(); got != workers*perWorker {
		t.Errorf("served %d requests, want %d", got, workers*perWorker)
	}
	if s.fr.Written() == 0 {
		t.Error("flight recorder saw no events")
	}
}

// TestGracefulShutdown drives the real signal path: serveOn must stop
// accepting, drain, and return nil when the process receives SIGTERM.
func TestGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(testConfig(), io.Discard)
	done := make(chan error, 1)
	go func() { done <- serveOn(ln, s) }()

	base := "http://" + ln.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Post(base+"/slice?var=positives&line=14", "text/plain", strings.NewReader(fig5(t)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveOn returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down within 10s of SIGTERM")
	}
}

const sdgTestProgram = `proc add(s, x) {
    s = s + x;
}
read(a);
read(b);
sum = 0;
cnt = 0;
call add(sum, a);
call add(cnt, b);
write(sum);
write(cnt);
`

func TestSliceSDG(t *testing.T) {
	s, ts := newTestServer(t)
	_, sr := postSlice(t, ts, "var=sum&line=10&algo=sdg&explain=1", sdgTestProgram)
	if sr.Algorithm != "sdg" {
		t.Errorf("algorithm = %q, want sdg", sr.Algorithm)
	}
	// The slice must cross the call boundary: the proc body (line 2)
	// and the relevant call chain, but not the cnt chain.
	want := []int{2, 4, 6, 8, 10}
	if fmt.Sprint(sr.Lines) != fmt.Sprint(want) {
		t.Errorf("lines = %v, want %v", sr.Lines, want)
	}
	if !strings.Contains(sr.Text, "proc add(s, x)") {
		t.Errorf("text lost the proc declaration:\n%s", sr.Text)
	}
	var reasons []string
	for _, rs := range sr.Reasons {
		reasons = append(reasons, rs...)
	}
	joined := strings.Join(reasons, "\n")
	for _, kind := range []string{"param-in", "param-out", "summary", "call"} {
		if !strings.Contains(joined, kind) {
			t.Errorf("explain reasons missing %q edge kind:\n%s", kind, joined)
		}
	}
	// The interprocedural path reports under its own metric namespace.
	var buf strings.Builder
	obs.WritePrometheus(&buf, s.reg.Snapshot())
	if !strings.Contains(buf.String(), "jumpslice_sdg_slices_total") {
		t.Error("metrics missing jumpslice_sdg_slices_total after an sdg request")
	}
}

func TestSliceSDGRejectsProcsOnIntraproceduralAlgos(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/slice?var=sum&line=10&algo=agrawal", "text/plain", strings.NewReader(sdgTestProgram))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("intraprocedural algo accepted a multi-procedure program")
	}
	data, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(data), "algo=sdg") {
		t.Errorf("error should direct to the interprocedural slicer: %s", data)
	}
}

// TestParseFlags pins the command line: exactly the 19 flags, each
// default written once (in defaultConfig), the flags CI passes
// accepted, and limits that admit nothing refused instead of silently
// replaced.
func TestParseFlags(t *testing.T) {
	var names []string
	cfg := defaultConfig()
	newFlagSet(&cfg).VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	want := []string{"addr", "cache-bytes", "disk-bytes", "disk-dir", "log-format",
		"max-body", "max-inflight", "max-stmts", "peers", "postmortem-dir", "pprof",
		"probe-interval", "result-bytes", "runtime-sample", "self", "slo",
		"spool-bytes", "spool-dir", "timeout"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("flags = %v\nwant    %v", names, want)
	}

	got, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, defaultConfig()) {
		t.Errorf("parsed defaults = %+v\nwant %+v", got, defaultConfig())
	}

	// The command lines of CI's sliced-smoke and cluster-smoke jobs.
	got, err = parseFlags([]string{"-addr", "127.0.0.1:8321", "-slo", "p99=50ms,err=1%",
		"-runtime-sample", "1s", "-log-format", "json", "-spool-dir", "/tmp/spool",
		"-postmortem-dir", "/tmp/pm"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Objectives.Latency != 50*time.Millisecond || got.LogFormat != "json" || got.RuntimeSample != time.Second {
		t.Errorf("sliced-smoke flags parsed as %+v", got)
	}
	got, err = parseFlags([]string{"-addr", "127.0.0.1:8331", "-peers", "127.0.0.1:8331, 127.0.0.1:8332",
		"-disk-dir", "/tmp/disk", "-probe-interval", "200ms", "-max-inflight", "32"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.PeerList, []string{"127.0.0.1:8331", "127.0.0.1:8332"}) ||
		got.Self != "127.0.0.1:8331" || got.MaxInflight != 32 || got.ProbeInterval != 200*time.Millisecond {
		t.Errorf("cluster-smoke flags parsed as %+v", got)
	}

	for _, args := range [][]string{
		{"-max-inflight", "0"},
		{"-max-body", "-1"},
		{"-max-stmts", "0"},
		{"-log-format", "xml"},
		{"-slo", "p99"},
		{"-flight", "64"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}
