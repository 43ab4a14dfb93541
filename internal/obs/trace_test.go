package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Instant("x", 1)
	tr.Traversal("fig7", 1)
	tr.JumpAdmitted("fig7", 3, 4, 5)
	tr.CacheHit(0)
	tr.CacheBuild(0)
	tr.SliceDone("agrawal", 9)
	tr.span("phase", time.Now(), time.Millisecond)
	if tr.ForRequest(7) != nil {
		t.Error("nil tracer ForRequest != nil")
	}
	if NewTracer(nil) != nil {
		t.Error("NewTracer(nil) != nil")
	}
	var fr *FlightRecorder
	if fr.Written() != 0 || fr.Dropped() != 0 || fr.Events() != nil {
		t.Error("nil flight recorder not a no-op")
	}
}

// TestFlightRecorderEvictsOldest pins the single-writer semantics
// exactly: a full ring holds the most recent Cap events, the oldest
// having been evicted in publication order, with Dropped counting
// every eviction.
func TestFlightRecorderEvictsOldest(t *testing.T) {
	fr := NewFlightRecorder(8)
	if fr.Cap() != 8 {
		t.Fatalf("cap = %d, want 8", fr.Cap())
	}
	tr := NewTracer(fr)
	for i := 0; i < 20; i++ {
		tr.Instant("e", int64(i))
	}
	if fr.Written() != 20 {
		t.Errorf("written = %d, want 20", fr.Written())
	}
	if fr.Dropped() != 12 {
		t.Errorf("dropped = %d, want 12", fr.Dropped())
	}
	evs := fr.Events()
	if len(evs) != 8 {
		t.Fatalf("buffered = %d, want 8", len(evs))
	}
	for i, e := range evs {
		if want := uint64(12 + i); e.Seq != want {
			t.Errorf("event %d seq = %d, want %d (oldest evicted first)", i, e.Seq, want)
		}
		if e.N != int64(e.Seq) {
			t.Errorf("event seq %d carries n = %d", e.Seq, e.N)
		}
	}
}

// TestFlightRecorderEventsEveryHeadOffset checks Events at every
// fill level of a 64-slot ring through three laps: the snapshot is
// the contiguous ascending run of Seq ending at Written()-1, whether
// or not the ring has wrapped and wherever its head stands.
func TestFlightRecorderEventsEveryHeadOffset(t *testing.T) {
	const capacity = 64
	fr := NewFlightRecorder(capacity)
	tr := NewTracer(fr)
	for written := 0; written < 3*capacity; written++ {
		evs := fr.Events()
		want := min(written, capacity)
		if len(evs) != want {
			t.Fatalf("written %d: %d events, want %d", written, len(evs), want)
		}
		for i, e := range evs {
			if wantSeq := uint64(written - want + i); e.Seq != wantSeq {
				t.Fatalf("written %d: event %d has seq %d, want %d", written, i, e.Seq, wantSeq)
			}
		}
		tr.Instant("e", int64(written))
	}
}

// TestFlightRecorderRequestEventsEveryHeadOffset checks that the
// per-request view equals that request's events filtered out of the
// full snapshot, at every head position of a wrapping ring, for
// requests with events buffered, evicted and never seen.
func TestFlightRecorderRequestEventsEveryHeadOffset(t *testing.T) {
	const capacity = 64
	fr := NewFlightRecorder(capacity)
	for written := 0; written < 3*capacity; written++ {
		all := fr.Events()
		for req := uint64(0); req < 5; req++ {
			var want []Event
			for _, e := range all {
				if e.Req == req {
					want = append(want, e)
				}
			}
			if got := fr.RequestEvents(req); !slices.Equal(got, want) {
				t.Fatalf("written %d, request %d: %d events %v, want %d %v",
					written, req, len(got), got, len(want), want)
			}
		}
		// Requests come in runs of 5 events, so old requests get
		// evicted as the ring wraps; request 4 only ever appears late.
		NewTracer(fr).ForRequest(uint64(written/5)%5).Instant("e", int64(written))
	}
}

// TestFlightRecorderConcurrentDropAccounting proves the accounting is
// exact under concurrent writers: the reservation counter never loses
// a publish, so written and dropped are precise even while the ring
// wraps many times over; the buffered snapshot stays consistent
// (distinct sequence numbers, each mapping to its own slot).
func TestFlightRecorderConcurrentDropAccounting(t *testing.T) {
	const (
		workers = 8
		each    = 1000
		cap     = 16
	)
	fr := NewFlightRecorder(cap)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := NewTracer(fr).ForRequest(uint64(w))
			for i := 0; i < each; i++ {
				tr.Instant("e", int64(i))
			}
		}()
	}
	wg.Wait()
	if fr.Written() != workers*each {
		t.Errorf("written = %d, want %d", fr.Written(), workers*each)
	}
	if want := uint64(workers*each - cap); fr.Dropped() != want {
		t.Errorf("dropped = %d, want %d", fr.Dropped(), want)
	}
	evs := fr.Events()
	if len(evs) != cap {
		t.Fatalf("buffered = %d, want %d", len(evs), cap)
	}
	seen := map[uint64]bool{}
	for _, e := range evs {
		if e.Seq >= workers*each {
			t.Errorf("seq %d out of range", e.Seq)
		}
		if seen[e.Seq] {
			t.Errorf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
		if e.Req >= workers {
			t.Errorf("unexpected request id %d", e.Req)
		}
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Errorf("events not seq-ascending at %d", i)
		}
	}
}

func TestTracerEventFieldsAndRequestScope(t *testing.T) {
	fr := NewFlightRecorder(64)
	root := NewTracer(fr)
	r1 := root.ForRequest(1)
	r2 := root.ForRequest(2)

	Observer{Tr: r1}.StartSpan("phase.analyze").End()
	r1.Traversal("fig7", 2)
	r1.JumpAdmitted("fig7", 7, 13, 8)
	r2.SliceDone("agrawal", 42)

	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	if evs[0].Kind != KindSpan || evs[0].Name != "phase.analyze" || evs[0].Req != 1 || evs[0].Dur < 0 {
		t.Errorf("span event = %+v", evs[0])
	}
	if evs[1].Kind != KindTraversal || evs[1].N != 2 {
		t.Errorf("traversal event = %+v", evs[1])
	}
	j := evs[2]
	if j.Kind != KindJumpAdmitted || j.Node != 7 || j.PD != 13 || j.LS != 8 {
		t.Errorf("jump event = %+v", j)
	}
	if evs[3].Req != 2 || evs[3].Kind != KindSlice || evs[3].N != 42 {
		t.Errorf("slice event = %+v", evs[3])
	}

	req1 := fr.RequestEvents(1)
	if len(req1) != 3 {
		t.Errorf("request 1 events = %d, want 3", len(req1))
	}
	for _, e := range req1 {
		if e.Req != 1 {
			t.Errorf("foreign event in request view: %+v", e)
		}
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	fr := NewFlightRecorder(8)
	tr := NewTracer(fr).ForRequest(3)
	tr.JumpAdmitted("fig7", 7, 13, 8)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, fr.Events()); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("JSONL line not valid JSON: %v\n%s", err, line)
	}
	if got["kind"] != "jump-admitted" || got["req"] != float64(3) || got["pd"] != float64(13) {
		t.Errorf("JSONL fields = %v", got)
	}
}

// TestChromeTraceSchema checks the trace_event export is valid JSON in
// the object container format, with the fields the Chrome/Perfetto
// loaders require: a traceEvents array whose entries carry name, a
// known phase, microsecond ts (rebased to 0), and pid/tid.
func TestChromeTraceSchema(t *testing.T) {
	fr := NewFlightRecorder(64)
	tr := NewTracer(fr).ForRequest(5)
	Observer{Tr: tr}.StartSpan("phase.analyze").End()
	tr.JumpAdmitted("fig7", 7, 13, 8)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fr.Events()); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   *float64          `json:"ts"`
			PID  int               `json:"pid"`
			TID  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d, want 2", len(trace.TraceEvents))
	}
	for _, e := range trace.TraceEvents {
		if e.Name == "" || e.TS == nil || *e.TS < 0 || e.PID != 1 || e.TID != 5 {
			t.Errorf("malformed trace event: %+v", e)
		}
		if e.Ph != "X" && e.Ph != "i" {
			t.Errorf("unknown phase %q", e.Ph)
		}
	}
	if trace.TraceEvents[0].Ph != "X" {
		t.Errorf("span should export as complete event, got %q", trace.TraceEvents[0].Ph)
	}
	if got := trace.TraceEvents[1].Args["nearest_pd"]; got != "13" {
		t.Errorf("jump admission args = %v", trace.TraceEvents[1].Args)
	}
}
