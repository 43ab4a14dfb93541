package obs

// Wide events: one canonical structured record per served request.
//
// Where the Registry aggregates across all requests, a WideEvent is
// one request's one-line summary —
// endpoint, status, duration, byte count, per-phase timings, cache
// and incremental tiers, slice size, and how the request ended. It is
// the record an operator greps for ("show me every 5xx slower than
// 50ms on /slice") and the record the access log emits, so the log
// line and the queryable ring never disagree.
//
// Events are kept in a RequestLog, a bounded mutex-guarded ring of
// the most recent N events. The write rate is one event per request,
// so a plain mutex costs nothing measurable and keeps readers exactly
// consistent. The nil *RequestLog and nil *SpanLog are valid no-ops,
// matching the package's one-nil-check discipline.
//
// This file is also the one place that knows how recorded events are
// queried: the outcome and route taxonomies, the Filter that
// /debug/requests and slicequery both match with, and the one reader
// of the two durable records, a post-mortem bundle's WriteJSONL lines
// and the daemon's JSON access log.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"
)

// The outcome taxonomy: how a request ended (WideEvent.Outcome).
const (
	OutcomeOK          = "ok"
	OutcomeClientError = "client_error"
	OutcomeError       = "error"
	OutcomeShed        = "shed"     // refused by the admission gate
	OutcomeTimeout     = "timeout"  // analysis deadline exceeded
	OutcomeCanceled    = "canceled" // client disconnected
	OutcomePanic       = "panic"    // recovered panic
)

// The route taxonomy: how cluster routing placed a request
// (WideEvent.Route).
const (
	RouteLocal   = "local"   // served by this node
	RouteProxied = "proxied" // forwarded to the ring owner
)

var (
	outcomes = []string{OutcomeOK, OutcomeClientError, OutcomeError, OutcomeShed, OutcomeTimeout, OutcomeCanceled, OutcomePanic}
	routes   = []string{RouteLocal, RouteProxied}
)

// CheckOutcome reports an error unless o is one of the outcome
// taxonomy, so a filter with a typo is refused instead of matching
// nothing. The error reads "outcome must be one of ...", ready for a
// surface to prefix with its own name for the parameter.
func CheckOutcome(o string) error { return checkIn("outcome", o, outcomes) }

// CheckRoute is CheckOutcome for the route taxonomy.
func CheckRoute(r string) error { return checkIn("route", r, routes) }

func checkIn(field, v string, set []string) error {
	if slices.Contains(set, v) {
		return nil
	}
	return fmt.Errorf("%s must be one of %s, got %q", field, strings.Join(set, "|"), v)
}

// PhaseDur is one completed phase of a request: the span name, and
// its elapsed nanoseconds.
type PhaseDur struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
}

// SpanLog accumulates the completed phase spans of one request, in
// completion order. Every Span of an Observer carrying the log adds
// its duration here as it ends — the same nanoseconds it feeds the
// registry's phase histogram — so the daemon attaches exact per-phase
// timings to the request's wide event. The nil SpanLog is a valid
// no-op.
type SpanLog struct {
	mu    sync.Mutex
	spans []PhaseDur
}

// Add records one completed phase. No-op on a nil log.
func (l *SpanLog) Add(name string, ns int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, PhaseDur{Name: name, NS: ns})
	l.mu.Unlock()
}

// Spans returns a copy of the recorded phases, in completion order
// (nil for a nil or empty log).
func (l *SpanLog) Spans() []PhaseDur {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) == 0 {
		return nil
	}
	out := make([]PhaseDur, len(l.spans))
	copy(out, l.spans)
	return out
}

// WideEvent is the canonical one-record-per-request summary. Fields
// that do not apply to a request (a /metrics scrape has no algorithm
// and no cache tier) are empty and omitted from JSON.
type WideEvent struct {
	// Req is the request ID — the same number X-Request-ID carries, so
	// the event resolves at /debug/requests?id= and in the access log.
	Req uint64 `json:"req"`
	// TimeNS is the request's arrival time, nanoseconds since the
	// Unix epoch.
	TimeNS int64 `json:"ts_ns"`
	// Method and Path are the raw request; Endpoint is the normalized
	// route ("/session/{id}" for any session, "(other)" for unknown
	// paths) — the bounded-cardinality key SLO windows aggregate by.
	Method   string `json:"method"`
	Path     string `json:"path"`
	Endpoint string `json:"endpoint"`
	// Status is the response status; DurationNS the wall-clock time to
	// serve it; BytesOut the response body size actually written.
	Status     int   `json:"status"`
	DurationNS int64 `json:"duration_ns"`
	BytesOut   int64 `json:"bytes_out"`
	// Outcome classifies how the request ended: one of the Outcome*
	// constants.
	Outcome string `json:"outcome"`
	// ErrorCode is the envelope code of a non-2xx response
	// ("invalid_program", "overloaded", ...).
	ErrorCode string `json:"error_code,omitempty"`
	// Algo, Stmts and SliceLines describe slicing requests: the
	// algorithm served, the program's statement count, and the line
	// count of the resulting slice.
	Algo       string `json:"algo,omitempty"`
	Stmts      int    `json:"stmts,omitempty"`
	SliceLines int    `json:"slice_lines,omitempty"`
	// Cache is the cache tier that answered a slice ("result",
	// "disk", or the analysis cache's "hit", "miss", "coalesced"), or
	// a session PATCH's analysis lookup ("hit", "miss"); Incremental
	// the session reuse tier ("patched", "partial", "full").
	Cache       string `json:"cache,omitempty"`
	Incremental string `json:"incremental,omitempty"`
	// Route says how cluster routing placed the request: one of the
	// Route* constants, empty unless -peers or -disk-dir is set. Peer names the
	// other node involved: the proxy target.
	Route string `json:"route,omitempty"`
	Peer  string `json:"peer,omitempty"`
	// Phases are the request's completed pipeline phase durations, in
	// completion order (empty on cache hits — no pipeline ran).
	Phases []PhaseDur `json:"phases,omitempty"`
}

// RequestLog is a bounded ring of the most recent wide events. All
// methods are safe for concurrent use; the nil log is a valid no-op.
type RequestLog struct {
	mu      sync.Mutex
	slots   []WideEvent
	written uint64
}

// NewRequestLog returns a log keeping the most recent capacity events
// (minimum 1).
func NewRequestLog(capacity int) *RequestLog {
	if capacity < 1 {
		capacity = 1
	}
	return &RequestLog{slots: make([]WideEvent, capacity)}
}

// Record appends one event, evicting the oldest when full. No-op on a
// nil log.
func (l *RequestLog) Record(e WideEvent) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.slots[l.written%uint64(len(l.slots))] = e
	l.written++
	l.mu.Unlock()
}

// Written returns the number of events ever recorded (0 on nil).
func (l *RequestLog) Written() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written
}

// Cap returns the ring capacity (0 on nil).
func (l *RequestLog) Cap() int {
	if l == nil {
		return 0
	}
	return len(l.slots)
}

// Events returns a copy of the buffered events, oldest first (nil on
// a nil log).
func (l *RequestLog) Events() []WideEvent { return l.Query(Filter{}, -1) }

// Query returns the buffered events that match f, oldest first: the
// newest n of them, or all of them when n < 0. It matches under the
// ring's lock, so only the matches are copied (nil on a nil log).
func (l *RequestLog) Query(f Filter, n int) []WideEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	capc := uint64(len(l.slots))
	held := int(min(l.written, capc))
	if n < 0 || n > held {
		n = held
	}
	out := make([]WideEvent, 0, n)
	for i := uint64(1); i <= uint64(held) && len(out) < n; i++ {
		if e := &l.slots[(l.written-i)%capc]; f.Match(e) {
			out = append(out, *e)
		}
	}
	slices.Reverse(out)
	return out
}

// Filter selects recorded wide events. The zero Filter matches every
// event.
type Filter struct {
	// SinceNS/UntilNS bound TimeNS (inclusive); zero means unbounded.
	SinceNS int64
	UntilNS int64
	// Endpoint, Status, Outcome, Route match exactly when set;
	// MinDurNS is the minimum duration; Req, when nonzero, selects one
	// request ID.
	Endpoint string
	Status   int
	Outcome  string
	Route    string
	MinDurNS int64
	Req      uint64
}

// Match reports whether one event passes the filter.
func (f *Filter) Match(ev *WideEvent) bool {
	return (f.SinceNS == 0 || ev.TimeNS >= f.SinceNS) &&
		(f.UntilNS == 0 || ev.TimeNS <= f.UntilNS) &&
		(f.Endpoint == "" || ev.Endpoint == f.Endpoint) &&
		(f.Status == 0 || ev.Status == f.Status) &&
		(f.Outcome == "" || ev.Outcome == f.Outcome) &&
		(f.Route == "" || ev.Route == f.Route) &&
		(f.MinDurNS == 0 || ev.DurationNS >= f.MinDurNS) &&
		(f.Req == 0 || ev.Req == f.Req)
}

// maxLine bounds one line ReadJSONL reads, newline included.
const maxLine = 1 << 20

// logPrefix is the layout of the prefix a log.Logger with
// log.LstdFlags|log.Lmicroseconds writes before each line, as the
// daemon's logger does.
const logPrefix = "2006/01/02 15:04:05.000000 "

// ReadJSONL streams the wide events of one of the two durable records
// through fn: a post-mortem bundle's requests.jsonl (WriteJSONL's
// lines) or the daemon's log, one wide event per request. Each
// event is handed over with its raw JSON bytes, valid only during the
// call; a caller selects with Filter.Match.
//
// A log is told apart by the prefix its logger writes, which is
// stripped. From the first line that carries it on, the lines that
// hold no wide event are skipped: a prefixed line whose text is not a
// JSON object (the listening and shutdown lines) and every unprefixed
// one (the rest of a multi-line message, such as a recovered panic's
// stack trace). Before it, every non-blank line must be a wide event.
//
// A final line with no newline that does not decode is the write a
// crash cut short, and ends the stream quietly; that loses at most
// one event. Any other line that does not decode, a read error, or an
// error from fn ends the stream and is returned as it is.
func ReadJSONL(r io.Reader, fn func(ev *WideEvent, raw []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	torn := false
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		if atEOF && len(data) > 0 {
			torn = true
			return len(data), data, nil
		}
		return 0, nil, nil
	})
	logged := false
	for sc.Scan() {
		line, prefixed := cutLogPrefix(sc.Bytes())
		logged = logged || prefixed
		if len(line) == 0 || logged && (!prefixed || line[0] != '{') {
			continue
		}
		ev := &WideEvent{}
		if err := json.Unmarshal(line, ev); err != nil {
			if torn {
				return nil
			}
			return err
		}
		if err := fn(ev, line); err != nil {
			return err
		}
	}
	return sc.Err()
}

// cutLogPrefix strips a leading logPrefix-shaped time stamp from line
// and reports whether there was one.
func cutLogPrefix(line []byte) ([]byte, bool) {
	n := len(logPrefix)
	if len(line) < n || line[0] < '0' || line[0] > '9' || line[n-1] != ' ' {
		return line, false
	}
	if _, err := time.Parse(logPrefix[:n-1], string(line[:n-1])); err != nil {
		return line, false
	}
	return line[n:], true
}
