package obs

// Tracing: request-scoped structured events in a bounded, lossy,
// lock-free flight recorder.
//
// Where the Registry answers "how much, in aggregate" (counters,
// histograms), the Tracer answers "what happened, in order, on this
// request": phase begin/end, fixpoint traversal passes, jump
// admissions with the nearest-postdominator/lexical-successor evidence
// the Figure 7 rule saw, closure-cache activity. Events land in a
// FlightRecorder — a fixed-size ring that keeps the most recent N
// events and evicts the oldest, with exact accounting of how many were
// evicted — so a long-lived process can always answer "what were you
// just doing" without unbounded memory.
//
// The same discipline as the metrics side applies: the nil *Tracer is
// a valid no-op, every method starts with one nil-check, and no clock
// is read and nothing is allocated when tracing is off. Instrumented
// code holds the *Tracer (nil by default) inside its Observer, whose
// one Span per phase publishes the span event here.

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"
)

// EventKind classifies one trace event.
type EventKind uint8

// The event kinds.
const (
	// KindSpan is a completed phase: TS is the start, Dur the elapsed
	// nanoseconds.
	KindSpan EventKind = iota
	// KindInstant is a generic point event with an optional count N.
	KindInstant
	// KindTraversal is one fixpoint pass of a jump-detection loop
	// (Figures 7, 12, 13); N is the 1-based pass number.
	KindTraversal
	// KindJumpAdmitted is a jump admission: Node is the jump's
	// flowgraph node, PD/LS the nearest-postdominator and nearest-
	// lexical-successor evidence observed at admission time.
	KindJumpAdmitted
	// KindCacheHit is a closure-cache lookup answered from a memoized
	// component closure; Node is the component index.
	KindCacheHit
	// KindCacheBuild is a component closure being materialized; Node
	// is the component index.
	KindCacheBuild
	// KindSlice is a finished slice; N is its node count.
	KindSlice
	// KindCancel is a cooperative cancellation being honoured: the
	// analysis pipeline observed its context's cancellation and
	// abandoned the request. Name is the site that noticed ("analyze",
	// "fig7", "closure", ...).
	KindCancel
)

// String names the kind as it appears in JSONL exports.
func (k EventKind) String() string {
	switch k {
	case KindSpan:
		return "span"
	case KindInstant:
		return "instant"
	case KindTraversal:
		return "traversal"
	case KindJumpAdmitted:
		return "jump-admitted"
	case KindCacheHit:
		return "cache-hit"
	case KindCacheBuild:
		return "cache-build"
	case KindSlice:
		return "slice"
	case KindCancel:
		return "cancel"
	}
	return "unknown"
}

// MarshalJSON renders the kind as its name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Event is one trace event. Events are immutable once published.
type Event struct {
	// Seq is the event's global sequence number: the i-th event ever
	// published to the flight recorder has Seq i.
	Seq uint64 `json:"seq"`
	// Req scopes the event to one request (0 outside any request).
	Req uint64 `json:"req"`
	// Kind classifies the event; Name names the phase or rule.
	Kind EventKind `json:"kind"`
	Name string    `json:"name"`
	// TS is the event time (for spans: the start) in nanoseconds since
	// the Unix epoch; Dur is the span's elapsed nanoseconds (0 for
	// point events).
	TS  int64 `json:"ts_ns"`
	Dur int64 `json:"dur_ns,omitempty"`
	// Node, PD and LS carry node evidence for jump admissions (and the
	// component index for cache events); -1 when absent.
	Node int `json:"node"`
	PD   int `json:"pd"`
	LS   int `json:"ls"`
	// N is a generic count: traversal pass number, slice node count.
	N int64 `json:"n,omitempty"`
}

// FlightRecorder is a fixed-capacity, lossy ring of the most recent
// trace events. Writers are lock-free: publishing is one atomic
// fetch-add to reserve a slot plus one atomic pointer store, so any
// number of request goroutines can share a recorder. When the ring is
// full the oldest events are evicted by overwrite; Dropped reports
// exactly how many, because the reservation counter never loses a
// write. Readers (Events) see a best-effort snapshot: under heavy
// concurrent writing a slot can briefly hold an event older than the
// newest evicted one, which is the accepted cost of never blocking
// the writers.
type FlightRecorder struct {
	mask  uint64
	slots []atomic.Pointer[Event]
	head  atomic.Uint64 // events ever published
}

// NewFlightRecorder returns a recorder keeping the most recent
// capacity events (rounded up to a power of two; minimum 1).
func NewFlightRecorder(capacity int) *FlightRecorder {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{mask: uint64(n - 1), slots: make([]atomic.Pointer[Event], n)}
}

// Cap returns the ring capacity.
func (f *FlightRecorder) Cap() int { return len(f.slots) }

// publish assigns the event its sequence number and stores it.
func (f *FlightRecorder) publish(e *Event) {
	e.Seq = f.head.Add(1) - 1
	f.slots[e.Seq&f.mask].Store(e)
}

// Written returns the number of events ever published (0 on nil).
func (f *FlightRecorder) Written() uint64 {
	if f == nil {
		return 0
	}
	return f.head.Load()
}

// Dropped returns the number of events evicted from the ring: every
// published event beyond the ring's capacity displaced an oldest one.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	if w := f.head.Load(); w > uint64(len(f.slots)) {
		return w - uint64(len(f.slots))
	}
	return 0
}

// Events returns a snapshot of the buffered events, oldest first
// (ascending Seq). Nil recorder returns nil.
func (f *FlightRecorder) Events() []Event {
	if f == nil {
		return nil
	}
	return f.collect(make([]Event, 0, len(f.slots)), 0, true)
}

// RequestEvents returns the buffered events of one request, oldest
// first. Only that request's events are copied.
func (f *FlightRecorder) RequestEvents(req uint64) []Event {
	if f == nil {
		return nil
	}
	return f.collect(nil, req, false)
}

// collect appends to out, in publication order, every buffered event
// (all) or those of request req.
func (f *FlightRecorder) collect(out []Event, req uint64, all bool) []Event {
	// Slot i holds the event whose Seq is ≡ i mod cap, so walking the
	// ring once from the slot the next write will take visits the
	// buffered events in publication order. Only a write racing the
	// walk can break that order; the rare snapshot it does is sorted.
	start := f.head.Load() & f.mask
	sorted := true
	for i := range f.slots {
		if e := f.slots[(start+uint64(i))&f.mask].Load(); e != nil && (all || e.Req == req) {
			sorted = sorted && (len(out) == 0 || out[len(out)-1].Seq < e.Seq)
			out = append(out, *e)
		}
	}
	if !sorted {
		slices.SortFunc(out, func(x, y Event) int { return cmp.Compare(x.Seq, y.Seq) })
	}
	return out
}

// Tracer publishes events into a FlightRecorder, stamped with one
// request ID. The nil Tracer is a valid no-op: every method costs one
// nil-check, reads no clock, allocates nothing — the same disabled-
// case contract as the nil Counter and Histogram.
type Tracer struct {
	fr  *FlightRecorder
	req uint64
	// spans, when non-nil, receives a copy of every span this tracer
	// publishes (see WithSpans) — the per-request phase collector wide
	// events are assembled from.
	spans *SpanLog
}

// NewTracer returns a tracer publishing into fr with request ID 0
// (process scope). Returns nil when fr is nil, keeping the no-op
// contract composable.
func NewTracer(fr *FlightRecorder) *Tracer {
	if fr == nil {
		return nil
	}
	return &Tracer{fr: fr}
}

// ForRequest returns a tracer publishing into the same recorder with
// events stamped req — the per-request child a daemon hands each
// request's pipeline. Nil-safe.
func (t *Tracer) ForRequest(req uint64) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{fr: t.fr, req: req, spans: t.spans}
}

// WithSpans returns a tracer that additionally tees every span it
// publishes into l, so one request's exact phase timings can be
// collected without scanning the shared flight recorder. A nil l
// returns t unchanged; the nil tracer stays nil (no recorder means no
// spans are published to tee).
func (t *Tracer) WithSpans(l *SpanLog) *Tracer {
	if t == nil || l == nil {
		return t
	}
	return &Tracer{fr: t.fr, req: t.req, spans: l}
}

// emit stamps and publishes one event.
func (t *Tracer) emit(kind EventKind, name string, node, pd, ls int, n int64) {
	t.fr.publish(&Event{
		Req:  t.req,
		Kind: kind,
		Name: name,
		TS:   time.Now().UnixNano(),
		Node: node,
		PD:   pd,
		LS:   ls,
		N:    n,
	})
}

// Instant publishes a generic point event. No-op on nil.
func (t *Tracer) Instant(name string, n int64) {
	if t == nil {
		return
	}
	t.emit(KindInstant, name, -1, -1, -1, n)
}

// Traversal publishes one fixpoint pass of the named jump-detection
// loop (pass is 1-based). No-op on nil.
func (t *Tracer) Traversal(name string, pass int) {
	if t == nil {
		return
	}
	t.emit(KindTraversal, name, -1, -1, -1, int64(pass))
}

// JumpAdmitted publishes a jump admission with its rule evidence: the
// jump's node and the nearest-postdominator/nearest-lexical-successor
// pair observed at admission time. No-op on nil.
func (t *Tracer) JumpAdmitted(name string, node, pd, ls int) {
	if t == nil {
		return
	}
	t.emit(KindJumpAdmitted, name, node, pd, ls, 0)
}

// CacheHit publishes a closure-cache hit on the given component;
// CacheBuild a component closure materialization. No-ops on nil.
func (t *Tracer) CacheHit(comp int) {
	if t == nil {
		return
	}
	t.emit(KindCacheHit, "pdg.closure", comp, -1, -1, 0)
}

// CacheBuild publishes a component closure materialization.
func (t *Tracer) CacheBuild(comp int) {
	if t == nil {
		return
	}
	t.emit(KindCacheBuild, "pdg.closure", comp, -1, -1, 0)
}

// Canceled publishes a cancellation event: the instrumented pipeline
// observed its context's cancellation at the named site and is
// abandoning the work. No-op on nil.
func (t *Tracer) Canceled(where string) {
	if t == nil {
		return
	}
	t.emit(KindCancel, where, -1, -1, -1, 0)
}

// SliceDone publishes a finished slice of nodes nodes. No-op on nil.
func (t *Tracer) SliceDone(name string, nodes int) {
	if t == nil {
		return
	}
	t.emit(KindSlice, name, -1, -1, -1, int64(nodes))
}

// span publishes a completed phase span, started at start and lasting
// d, and tees it into the tracer's SpanLog. No-op on nil.
func (t *Tracer) span(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.fr.publish(&Event{
		Req:  t.req,
		Kind: KindSpan,
		Name: name,
		TS:   start.UnixNano(),
		Dur:  int64(d),
		Node: -1,
		PD:   -1,
		LS:   -1,
	})
	t.spans.Add(name, int64(d))
}
