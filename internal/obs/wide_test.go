package obs

import (
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestRequestLogRingEviction(t *testing.T) {
	l := NewRequestLog(4)
	if l.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", l.Cap())
	}
	for i := 1; i <= 6; i++ {
		l.Record(WideEvent{Req: uint64(i)})
	}
	if l.Written() != 6 {
		t.Fatalf("Written = %d, want 6", l.Written())
	}
	ev := l.Events()
	if len(ev) != 4 {
		t.Fatalf("Events len = %d, want 4", len(ev))
	}
	// Oldest first: 3, 4, 5, 6 survive.
	for i, want := range []uint64{3, 4, 5, 6} {
		if ev[i].Req != want {
			t.Errorf("event %d Req = %d, want %d", i, ev[i].Req, want)
		}
	}
}

func TestRequestLogPartialFill(t *testing.T) {
	l := NewRequestLog(8)
	l.Record(WideEvent{Req: 1})
	l.Record(WideEvent{Req: 2})
	ev := l.Events()
	if len(ev) != 2 || ev[0].Req != 1 || ev[1].Req != 2 {
		t.Fatalf("Events = %+v, want [1 2]", ev)
	}
}

func TestRequestLogNilSafe(t *testing.T) {
	var l *RequestLog
	l.Record(WideEvent{Req: 1})
	if l.Events() != nil || l.Written() != 0 || l.Cap() != 0 {
		t.Error("nil RequestLog is not a no-op")
	}
}

// TestRequestLogConcurrentWriters hammers the ring from many writers
// while a reader snapshots concurrently; under -race this proves the
// ring is data-race free, and the final state must account for every
// write.
func TestRequestLogConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 500
	l := NewRequestLog(64)
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, e := range l.Events() {
					if e.Req == 0 {
						t.Error("snapshot observed a zero (torn) event")
						return
					}
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Record(WideEvent{Req: uint64(w*perWriter + i + 1), Status: 200})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if got := l.Written(); got != writers*perWriter {
		t.Fatalf("Written = %d, want %d", got, writers*perWriter)
	}
	if got := len(l.Events()); got != 64 {
		t.Fatalf("Events len = %d, want full ring 64", got)
	}
}

func TestSpanLogCollects(t *testing.T) {
	reg := NewRegistry()
	sl := &SpanLog{}
	o := Observer{Reg: reg, Spans: sl}
	o.StartSpan("cfg").End()
	o.StartSpan("pdg").End()
	spans := sl.Spans()
	if len(spans) != 2 || spans[0].Name != "cfg" || spans[1].Name != "pdg" {
		t.Fatalf("Spans = %+v, want cfg then pdg", spans)
	}
	for _, s := range spans {
		if s.NS < 0 {
			t.Errorf("span %s has negative duration %d", s.Name, s.NS)
		}
		// The log must not replace the histogram: both saw the one
		// duration.
		if h := reg.Histogram(s.Name, UnitNanoseconds); h.Count() != 1 || h.Sum() != s.NS {
			t.Errorf("histogram %s = count %d sum %d, want 1 and %d", s.Name, h.Count(), h.Sum(), s.NS)
		}
	}
	// A SpanLog alone (no registry) still collects.
	only := &SpanLog{}
	Observer{Spans: only}.StartSpan("dataflow").End()
	if got := only.Spans(); len(got) != 1 || got[0].Name != "dataflow" {
		t.Fatalf("Spans = %+v, want [dataflow]", got)
	}
}

func TestSpanLogNilSafe(t *testing.T) {
	var sl *SpanLog
	sl.Add("x", 1)
	if sl.Spans() != nil {
		t.Error("nil SpanLog is not a no-op")
	}
	// A registry-only Observer times into the histogram and nowhere
	// else; the zero Observer reads no clock.
	reg := NewRegistry()
	if d := (Observer{Reg: reg}).StartSpan("x").End(); reg.Histogram("x", UnitNanoseconds).Sum() != int64(d) {
		t.Error("registry-only span lost its duration")
	}
	if d := (Observer{}).StartSpan("x").End(); d != 0 {
		t.Errorf("zero Observer span = %v, want 0", d)
	}
}

func TestWideEventJSONShape(t *testing.T) {
	// Sparse events (a /metrics scrape, say) must omit the slicing-
	// specific fields entirely.
	b, err := json.Marshal(WideEvent{Req: 1, Method: "GET", Path: "/healthz", Endpoint: "/healthz", Status: 200, Outcome: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"algo", "cache", "incremental", "phases", "error_code"} {
		if strings.Contains(string(b), `"`+absent+`"`) {
			t.Errorf("sparse event JSON should omit %q: %s", absent, b)
		}
	}
	// A full event carries everything.
	full := WideEvent{
		Req: 2, Method: "POST", Path: "/slice", Endpoint: "/slice", Status: 200,
		Outcome: "ok", Algo: "agrawal", Stmts: 14, SliceLines: 9, Cache: "hit",
		Incremental: "patched", Phases: []PhaseDur{{Name: "cfg", NS: 1000}},
	}
	b, err = json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var back WideEvent
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cache != "hit" || back.Incremental != "patched" || len(back.Phases) != 1 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

// TestRequestLogQuery checks that a query keeps the newest n matches,
// oldest first, across the ring's wrap.
func TestRequestLogQuery(t *testing.T) {
	l := NewRequestLog(6)
	for i := 1; i <= 9; i++ { // 4..9 survive; even ones are 5xx
		l.Record(WideEvent{Req: uint64(i), Status: 200 + 300*(1-i%2)})
	}
	reqs := func(evs []WideEvent) []uint64 {
		out := []uint64{}
		for _, e := range evs {
			out = append(out, e.Req)
		}
		return out
	}
	for _, c := range []struct {
		f    Filter
		n    int
		want []uint64
	}{
		{Filter{}, -1, []uint64{4, 5, 6, 7, 8, 9}},
		{Filter{Status: 500}, -1, []uint64{4, 6, 8}},
		{Filter{Status: 500}, 2, []uint64{6, 8}},
		{Filter{Status: 200}, 10, []uint64{5, 7, 9}},
		{Filter{}, 0, []uint64{}},
		{Filter{Req: 2}, -1, []uint64{}},
	} {
		got := l.Query(c.f, c.n)
		if got == nil || !slices.Equal(reqs(got), c.want) {
			t.Errorf("Query(%+v, %d) = %v, want %v", c.f, c.n, reqs(got), c.want)
		}
	}
	var nilLog *RequestLog
	if nilLog.Query(Filter{}, -1) != nil {
		t.Error("nil RequestLog Query is not nil")
	}
}

// TestReadJSONLRoundTrip writes events with WriteJSONL and reads them
// back: blank lines are skipped, the raw line is the stored bytes,
// and a malformed line is an error.
func TestReadJSONLRoundTrip(t *testing.T) {
	evs := []WideEvent{
		{Req: 1, Endpoint: "/slice", Status: 200, Outcome: OutcomeOK},
		{Req: 2, Endpoint: "/slice", Status: 503, Outcome: OutcomeShed},
		{Req: 3, Endpoint: "/healthz", Status: 200, Outcome: OutcomeOK},
	}
	var buf strings.Builder
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	var got []uint64
	f := Filter{Endpoint: "/slice"}
	err := ReadJSONL(strings.NewReader("\n"+buf.String()+"\n"), func(ev *WideEvent, raw []byte) error {
		if want := strings.TrimSuffix(lines[ev.Req-1], "\n"); string(raw) != want {
			t.Errorf("raw line %q, want %q", raw, want)
		}
		if f.Match(ev) {
			got = append(got, ev.Req)
		}
		return nil
	})
	if err != nil || !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("ReadJSONL = %v, %v; want [1 2]", got, err)
	}
	if err := ReadJSONL(strings.NewReader("{\"req\":1}\nnot json\n"), func(*WideEvent, []byte) error { return nil }); err == nil {
		t.Error("malformed line read without error")
	}
}

func TestCheckTaxonomies(t *testing.T) {
	for _, o := range []string{"ok", "client_error", "error", "shed", "timeout", "canceled", "panic"} {
		if err := CheckOutcome(o); err != nil {
			t.Error(err)
		}
	}
	for _, r := range []string{"local", "proxied"} {
		if err := CheckRoute(r); err != nil {
			t.Error(err)
		}
	}
	if err := CheckOutcome("OK"); err == nil || err.Error() != `outcome must be one of ok|client_error|error|shed|timeout|canceled|panic, got "OK"` {
		t.Errorf("CheckOutcome(OK) = %v", err)
	}
	for _, r := range []string{"", "peer-fill"} {
		if err := CheckRoute(r); err == nil || err.Error() != `route must be one of local|proxied, got "`+r+`"` {
			t.Errorf("CheckRoute(%q) = %v", r, err)
		}
	}
}
