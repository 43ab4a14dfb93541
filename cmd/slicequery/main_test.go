package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jumpslice/internal/obs"
)

// seedEvents is the fixture fleet: a mix of endpoints, statuses,
// outcomes and durations with known request IDs.
func seedEvents() []obs.WideEvent {
	evs := make([]obs.WideEvent, 0, 20)
	for i := 1; i <= 20; i++ {
		ev := obs.WideEvent{
			Req:        uint64(i),
			TimeNS:     int64(i) * 1_000_000, // 1ms apart
			Method:     "POST",
			Path:       "/slice",
			Endpoint:   "/slice",
			Status:     200,
			DurationNS: int64(i) * int64(1_000_000), // i ms
			BytesOut:   int64(100 + i),
			Outcome:    "ok",
			Algo:       "agrawal",
			Stmts:      20,
			SliceLines: 9,
			Phases: []obs.PhaseDur{
				{Name: "parse", NS: 100_000},
				{Name: "cfg", NS: 200_000},
				{Name: "slice", NS: int64(i) * 500_000},
			},
		}
		switch {
		case i%7 == 0:
			ev.Status, ev.Outcome, ev.ErrorCode = 500, "error", "internal"
		case i%5 == 0:
			ev.Method, ev.Path, ev.Endpoint = "GET", "/healthz", "/healthz"
			ev.Algo, ev.Stmts, ev.SliceLines, ev.Phases = "", 0, 0, nil
		}
		evs = append(evs, ev)
	}
	return evs
}

// panicTrace is a recovered panic's log message after its first line:
// a line that starts as a wide event does but belongs to the message,
// then a Go stack trace, whose argument lists hold braces.
const panicTrace = `{"req":99,"note":"inside a panic message"}
goroutine 42 [running]:
runtime/debug.Stack()
	/usr/local/go/src/runtime/debug/stack.go:26 +0x5e
main.(*server).recoverPanics.func1.1()
	/src/cmd/sliced/main.go:652 +0x8b
panic({0x8a1b20?, 0xc0001a2f30?})
	/usr/local/go/src/runtime/panic.go:785 +0x132
main.(*server).handleSlice(0xc000132000, {0x9d7c58, 0xc00021e0e0}, 0xc000244000)
	/src/cmd/sliced/main.go:701 +0x45`

// writeLog writes evs as the daemon's stderr:
// every line time-stamped by the daemon's logger, a start-up line
// first, a recovered panic's stack trace after the third event, and
// last one more event torn halfway by a crash.
func writeLog(t *testing.T, evs []obs.WideEvent) string {
	t.Helper()
	var b strings.Builder
	lg := log.New(&b, "", log.LstdFlags|log.Lmicroseconds)
	lg.Print("sliced listening on http://127.0.0.1:8080 (timeout 10s, max body 1048576, max stmts 20000, max inflight 2)")
	for i, ev := range evs {
		data, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		lg.Print(string(data))
		if i == 2 {
			lg.Printf("req=%d panic: boom\n%s", ev.Req, panicTrace)
		}
	}
	torn, _ := json.Marshal(&obs.WideEvent{Req: 21, Endpoint: "/slice", Status: 200, Outcome: "ok"})
	lg.Print(string(torn))
	data := b.String()
	path := filepath.Join(t.TempDir(), "sliced.log")
	if err := os.WriteFile(path, []byte(data[:len(data)-len(torn)/2]), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// makeLog writes the fixture events as a daemon log.
func makeLog(t *testing.T) string { return writeLog(t, seedEvents()) }

// makeBundle writes the fixture events as a bundle's requests.jsonl.
func makeBundle(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "requests.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	for _, ev := range seedEvents() {
		if err := enc.Encode(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// query runs the CLI and returns its stdout, failing on nonzero exit.
func query(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb strings.Builder
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("slicequery %v exited %d: %s", args, code, errb.String())
	}
	return out.String()
}

func TestSummaryFromLog(t *testing.T) {
	logf := makeLog(t)
	out := query(t, "-log", logf, "summary")
	for _, want := range []string{
		"events: 20",
		"ok", "error",
		"latency:", "p50=", "p99=",
		"/slice", "/healthz",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
	// 2 of 20 events are 500s (i=7,14).
	if !strings.Contains(out, "error") || !strings.Contains(out, "10.0%") {
		t.Errorf("summary should show the 10%% error share:\n%s", out)
	}
}

func TestSummaryIsDefaultCommand(t *testing.T) {
	logf := makeLog(t)
	if got, want := query(t, "-log", logf), query(t, "-log", logf, "summary"); got != want {
		t.Error("bare invocation and explicit summary disagree")
	}
}

func TestTopShowsPhaseBreakdown(t *testing.T) {
	logf := makeLog(t)
	out := query(t, "-log", logf, "-n", "3", "top")
	if !strings.Contains(out, "top 3 slowest of 20 events") {
		t.Errorf("top header wrong:\n%s", out)
	}
	// Slowest is req=20 (20ms), which kept its phases.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 || !strings.Contains(lines[1], "req=20") {
		t.Errorf("slowest request should lead:\n%s", out)
	}
	// req=20 is a phase-less /healthz probe; req=19 is the slowest
	// slicing request and must carry its breakdown.
	if !strings.Contains(out, "phases: parse=") || !strings.Contains(out, "slice=9.5ms") {
		t.Errorf("top should show phase breakdowns:\n%s", out)
	}
}

func TestFilters(t *testing.T) {
	logf := makeLog(t)
	out := query(t, "-log", logf, "-outcome", "error", "list")
	if n := strings.Count(out, "req="); n != 2 {
		t.Errorf("outcome=error matched %d events, want 2:\n%s", n, out)
	}
	out = query(t, "-log", logf, "-endpoint", "/healthz", "-n", "0", "list")
	if n := strings.Count(out, "req="); n != 4 {
		t.Errorf("endpoint=/healthz matched %d events, want 4 (i=5,10,15,20):\n%s", n, out)
	}
	out = query(t, "-log", logf, "-min-ms", "18", "-n", "0", "list")
	if n := strings.Count(out, "req="); n != 3 {
		t.Errorf("min-ms=18 matched %d events, want 3 (18,19,20ms):\n%s", n, out)
	}
	out = query(t, "-log", logf, "-status", "500", "-n", "0", "list")
	if n := strings.Count(out, "req="); n != 2 {
		t.Errorf("status=500 matched %d events, want 2:\n%s", n, out)
	}
	// Unix-nanosecond time bounds: events 1..20 at i*1ms.
	out = query(t, "-log", logf, "-since", "15000000", "-n", "0", "list")
	if n := strings.Count(out, "req="); n != 6 {
		t.Errorf("since=15ms matched %d events, want 6 (15..20):\n%s", n, out)
	}
}

func TestRequestReconstruction(t *testing.T) {
	logf := makeLog(t)
	out := query(t, "-log", logf, "-id", "3", "request")
	for _, want := range []string{
		"request 3",
		"POST /slice",
		"algo=agrawal stmts=20 slice_lines=9",
		"parse", "cfg", "slice",
		"(phase total)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("request output missing %q:\n%s", want, out)
		}
	}
}

// TestRequestRawIsByteForByte pins the acceptance criterion: -raw
// must reproduce exactly the bytes the daemon logged after the time
// stamp — which are exactly json.Marshal of the wide event.
func TestRequestRawIsByteForByte(t *testing.T) {
	logf := makeLog(t)
	for _, ev := range seedEvents() {
		want, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		out := query(t, "-log", logf, "-id", fmt.Sprint(ev.Req), "-raw", "request")
		if got := strings.TrimSuffix(out, "\n"); got != string(want) {
			t.Fatalf("req=%d raw mismatch:\n got %s\nwant %s", ev.Req, got, want)
		}
	}
}

func TestBundleSource(t *testing.T) {
	dir := makeBundle(t)
	out := query(t, "-bundle", dir, "summary")
	if !strings.Contains(out, "events: 20") {
		t.Errorf("bundle summary wrong:\n%s", out)
	}
	// Raw bytes survive the bundle path too.
	ev := seedEvents()[0]
	want, _ := json.Marshal(&ev)
	out = query(t, "-bundle", dir, "-id", "1", "-raw", "request")
	if got := strings.TrimSuffix(out, "\n"); got != string(want) {
		t.Errorf("bundle raw mismatch:\n got %s\nwant %s", got, want)
	}
	// Filters apply on the bundle path.
	out = query(t, "-bundle", dir, "-outcome", "error", "list")
	if n := strings.Count(out, "req="); n != 2 {
		t.Errorf("bundle outcome=error matched %d, want 2:\n%s", n, out)
	}
}

func TestErrors(t *testing.T) {
	logf := makeLog(t)
	// A log in the text access log format sliced no longer writes, and
	// a log whose torn event is not its last line.
	textLog := filepath.Join(t.TempDir(), "text.log")
	os.WriteFile(textLog, []byte("2026/01/02 15:04:05.000001 sliced listening on http://127.0.0.1:8080\n"+
		"2026/01/02 15:04:05.000002 req=1 POST /slice 200 1ms bytes=10 outcome=ok\n"), 0o644)
	full, _ := os.ReadFile(logf)
	cutLog := filepath.Join(t.TempDir(), "cut.log")
	os.WriteFile(cutLog, append(full, "\n2026/01/02 15:04:05.000003 sliced listening on http://127.0.0.1:8080\n"...), 0o644)
	cases := [][]string{
		{},                                      // no source
		{"-log", logf, "-bundle", t.TempDir()},  // both sources
		{"-log", logf, "-outcome", "nope"},      // invalid outcome
		{"-log", logf, "request"},               // request without -id
		{"-log", logf, "-id", "999", "request"}, // unknown request
		{"-log", logf, "-since", "yesterday"},   // unparseable time
		{"-log", logf, "frobnicate"},            // unknown command
		{"-bundle", t.TempDir(), "summary"},     // bundle without requests.jsonl
		{"-log", logf + ".missing"},             // missing log
		{"-log", textLog},                       // no wide events
		{"-log", cutLog},                        // an event cut short mid-log
	}
	for _, args := range cases {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("slicequery %v should fail, got exit 0 with output:\n%s", args, out.String())
		} else if errb.Len() == 0 {
			t.Errorf("slicequery %v failed silently", args)
		}
	}
	var out, errb strings.Builder
	run([]string{"-log", textLog}, &out, &errb)
	if !strings.Contains(errb.String(), "holds no wide events") {
		t.Errorf("a log with no wide events should say so, got %q", errb.String())
	}
}

func TestDurationSince(t *testing.T) {
	logf := makeLog(t)
	// All fixture events are in 1970; "1h ago" excludes everything.
	out := query(t, "-log", logf, "-since", "1h", "summary")
	if !strings.Contains(out, "events: 0") {
		t.Errorf("duration -since should exclude epoch-era events:\n%s", out)
	}
}

// TestRouteFilterAndDisplay covers the cluster attribution fields: a
// log of routed traffic filters by -route, breaks routes out in the
// summary, and carries route/peer onto list lines and the request
// reconstruction.
func TestRouteFilterAndDisplay(t *testing.T) {
	var evs []obs.WideEvent
	for i := 1; i <= 9; i++ {
		ev := obs.WideEvent{
			Req: uint64(i), TimeNS: int64(i) * 1_000_000,
			Method: "POST", Path: "/slice", Endpoint: "/slice",
			Status: 200, DurationNS: 1_000_000, Outcome: "ok",
			Route: "local",
		}
		if i%3 == 0 {
			ev.Route, ev.Peer = "proxied", "127.0.0.1:9001"
		}
		evs = append(evs, ev)
	}
	logf := writeLog(t, evs)

	out := query(t, "-log", logf, "-route", "proxied", "-n", "0", "list")
	if n := strings.Count(out, "req="); n != 3 {
		t.Errorf("-route proxied matched %d events, want 3:\n%s", n, out)
	}
	if !strings.Contains(out, "route=proxied peer=127.0.0.1:9001") {
		t.Errorf("list line missing route attribution:\n%s", out)
	}

	out = query(t, "-log", logf, "summary")
	if !strings.Contains(out, "routes:") ||
		!strings.Contains(out, "proxied") || !strings.Contains(out, "local") {
		t.Errorf("summary missing routes breakdown:\n%s", out)
	}

	out = query(t, "-log", logf, "-id", "3", "request")
	if !strings.Contains(out, "cluster:  route=proxied peer=127.0.0.1:9001") {
		t.Errorf("request reconstruction missing cluster line:\n%s", out)
	}

	// An invalid route is rejected, same contract as -outcome; the
	// retired peer-fill route is as unknown as any other.
	for _, route := range []string{"bogus", "peer-fill"} {
		var o, e strings.Builder
		if code := run([]string{"-log", logf, "-route", route}, &o, &e); code == 0 {
			t.Errorf("-route %s accepted", route)
		}
	}

	// An unclustered daemon's log prints no routes section.
	out = query(t, "-log", makeLog(t), "summary")
	if strings.Contains(out, "routes:") {
		t.Errorf("unclustered summary grew a routes section:\n%s", out)
	}
}
