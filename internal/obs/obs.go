// Package obs is the repository's dependency-free observability core:
// atomic counters, fixed-bucket histograms, and an Observer whose one
// Span per phase feeds the metrics registry and the request's SpanLog.
//
// The design optimizes for the disabled case. The nil *Registry hands
// out nil *Counter / nil *Histogram, the zero Observer hands out zero
// Spans, and every instrument method is nil-safe — so a hot path that
// was instrumented with a pre-resolved counter pays exactly one
// nil-check per event when recording is off, no interface call, no
// allocation, no time.Now. Instrumented packages resolve their
// instruments once (at Analysis construction, say) and hold the
// pointers:
//
//	examined := reg.Counter("core.jumps_examined") // nil on a nil registry
//	...
//	examined.Add(1) // one predictable branch when disabled
//
// Registry is the collecting sink. All instruments are safe
// for concurrent use (atomics; the name→instrument maps take a mutex
// only at resolution time), so one Registry can be shared across a
// worker pool and its totals are independent of scheduling order —
// counter sums and histogram merges commute. Snapshot renders the
// state deterministically (instruments sorted by name) for JSON dumps
// and cross-run comparison.
//
// # Histogram bucket scheme
//
// Every Histogram has the same NumBuckets (48) fixed buckets over
// int64 observations, with power-of-two boundaries:
//
//	bucket 0               values v <= 0
//	bucket i (1..46)       2^(i-1) <= v < 2^i
//	bucket 47 (overflow)   values v >= 2^46, unbounded
//
// Fixed buckets make Observe two atomic adds with no allocation, and
// make merging across registries element-wise addition. For
// UnitNanoseconds histograms bucket 46's upper bound (2^46 ns) is
// about 20 hours; for UnitCount histograms it is far beyond any node
// set this repository produces, so the overflow bucket is empty in
// practice — but it is still unbounded, and exported snapshots say
// so: each Bucket carries its explicit inclusive upper bound Le
// (BucketUpperBound), with the overflow bucket reporting
// math.MaxInt64, which consumers (the Prometheus renderer) present as
// +Inf rather than inventing a bound the bucket does not have.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Unit tags what a histogram's observed values measure, so consumers
// of a Snapshot can tell wall-clock instruments (nondeterministic
// across runs) from structural ones (deterministic).
type Unit string

const (
	// UnitNanoseconds marks duration histograms (Span targets).
	UnitNanoseconds Unit = "ns"
	// UnitCount marks size/count histograms (closure sizes, etc.).
	UnitCount Unit = "count"
)

// Counter is a monotonically increasing atomic counter. The nil
// counter is a valid no-op: Add and Value on nil cost one nil-check.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d. No-op on a nil counter.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level — resident cache bytes, entry
// counts — that, unlike a Counter, can go down. The nil gauge is a
// valid no-op: Add, Set and Value on nil cost one nil-check.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by d (negative to decrease). No-op on nil.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Set replaces the gauge's level. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// NumBuckets is the fixed bucket count of every histogram: power-of-
// two buckets covering 1..2^46 (for nanoseconds, ~20 hours; for
// counts, far beyond any node set), plus bucket 0 for values <= 0 and
// a final unbounded overflow bucket. See the package comment for the
// full scheme.
const NumBuckets = 48

// Histogram is a fixed-bucket histogram over int64 observations with
// power-of-two bucket boundaries: bucket 0 counts values <= 0, bucket
// i >= 1 counts values v with 2^(i-1) <= v < 2^i, and the last bucket
// absorbs everything larger. Fixed buckets mean Observe is two atomic
// adds and no allocation, and merging across registries is element-wise
// addition. The nil histogram is a valid no-op.
type Histogram struct {
	unit    Unit
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // 2^(b-1) <= v < 2^b
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Observer is one request's observability handle: the metrics
// registry its spans and counters aggregate into, and the SpanLog that
// collects its phase durations for the wide event. Either may be nil,
// and the zero Observer records nothing. Instrumented code holds one
// Observer value instead of threading the two sinks side by side, so
// every phase is timed by exactly one Span.
type Observer struct {
	Reg   *Registry
	Spans *SpanLog
}

// Span times one phase for every sink of an Observer. The zero Span
// (what the zero Observer hands out) is a no-op whose End neither
// reads the clock nor records.
type Span struct {
	h     *Histogram
	spans *SpanLog
	name  string
	start time.Time
}

// StartSpan starts a phase span, reading the clock once. On the zero
// Observer it returns the zero Span without reading the clock.
func (o Observer) StartSpan(name string) Span {
	if o == (Observer{}) {
		return Span{}
	}
	return Span{h: o.Reg.Histogram(name, UnitNanoseconds), spans: o.Spans, name: name, start: time.Now()}
}

// End stops the span and feeds its one duration to both sinks: the
// registry's duration histogram of the span's name and the SpanLog.
// It returns the duration; on a no-op span it returns 0 without
// touching the clock.
func (s Span) End() time.Duration {
	if s.h == nil && s.spans == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.Observe(int64(d))
	s.spans.Add(s.name, int64(d))
	return d
}

// Registry is the collecting metrics sink. The nil *Registry is the
// disabled one: it hands out nil instruments, which every instrument
// method accepts, so a component given no registry pays one nil-check
// per event. A usable Registry comes from NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// gcMu guards lastGC, the GC cycle up to which SampleRuntime has
	// observed pauses.
	gcMu   sync.Mutex
	lastGC uint32
}

// NewRegistry returns an empty collecting registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use (nil on
// a nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// Gauge returns the named gauge, creating it on first use (nil on a
// nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	r.mu.Unlock()
	return g
}

// Histogram returns the named histogram, creating it with the given
// unit on first use (later units are ignored; the first wins). Nil on
// a nil registry.
func (r *Registry) Histogram(name string, unit Unit) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{unit: unit}
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// CounterSnapshot is one counter's state in a Snapshot.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's state in a Snapshot.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Bucket is one nonzero histogram bucket with its explicit inclusive
// upper bound: 0 for the <= 0 bucket, 2^i - 1 for interior bucket i,
// and math.MaxInt64 (meaning +Inf — the bucket is unbounded) for the
// overflow bucket. Snapshots carry the bound itself rather than
// leaving it implied by bucket index, so consumers need no knowledge
// of the bucket scheme to render ranges.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is one histogram's state in a Snapshot. For
// UnitNanoseconds histograms Sum and Buckets carry wall-clock values
// and are nondeterministic across runs; Count is structural.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Unit    Unit     `json:"unit"`
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time, deterministically ordered copy of a
// Registry's state, ready for JSON encoding.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// BucketUpperBound returns bucket i's inclusive upper bound: 0 for
// the <= 0 bucket, 2^i - 1 for interior buckets, and math.MaxInt64
// (+Inf; the bucket is unbounded) for the final overflow bucket.
func BucketUpperBound(i int) int64 {
	switch {
	case i == 0:
		return 0
	case i >= NumBuckets-1:
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Snapshot copies the registry's current state, instruments sorted by
// name so equal states encode to equal bytes.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make([]CounterSnapshot, 0, len(r.counters)),
		Histograms: make([]HistogramSnapshot, 0, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	for name, h := range r.hists {
		hs := HistogramSnapshot{Name: name, Unit: h.unit, Count: h.count.Load(), Sum: h.sum.Load()}
		for i := 0; i < NumBuckets; i++ {
			if n := h.buckets[i].Load(); n != 0 {
				hs.Buckets = append(hs.Buckets, Bucket{Le: BucketUpperBound(i), Count: n})
			}
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Scrub zeroes the wall-clock content of every UnitNanoseconds
// histogram in place — Sum and per-bucket placements — while keeping
// the structural observation Count. It also folds the analysis
// cache's cache.hits and cache.coalesced counters into a single
// cache.reused counter: the two outcomes both mean "an analysis was
// not rebuilt", and how reuses split between them depends on whether
// the second request arrived during or after the first's build — pure
// scheduling. The fold keeps the deterministic total. Finally it
// drops every instrument under the "runtime.", "cluster.", "disk."
// and "result." prefixes entirely — runtime-health samples
// (goroutine counts, heap sizes, GC pause counts) and the
// cluster/disk/result-cache tiers depend on the machine, the
// scheduler, disk speed, peer timing, and when a scrape samples, so
// even their observation counts are nondeterministic. Two
// runs of the same deterministic workload produce byte-identical
// scrubbed snapshots at any parallelism; cmd/slicebench's determinism
// test relies on this.
func (s *Snapshot) Scrub() *Snapshot {
	for i := range s.Histograms {
		if s.Histograms[i].Unit == UnitNanoseconds {
			s.Histograms[i].Sum = 0
			s.Histograms[i].Buckets = nil
		}
	}
	var reused int64
	fold := false
	kc := s.Counters[:0]
	for _, c := range s.Counters {
		if scrubbedName(c.Name) {
			continue
		}
		if c.Name == "cache.hits" || c.Name == "cache.coalesced" {
			reused += c.Value
			fold = true
			continue
		}
		kc = append(kc, c)
	}
	if fold {
		kc = append(kc, CounterSnapshot{Name: "cache.reused", Value: reused})
		sort.Slice(kc, func(i, j int) bool { return kc[i].Name < kc[j].Name })
	}
	s.Counters = kc
	kg := s.Gauges[:0]
	for _, g := range s.Gauges {
		if !scrubbedName(g.Name) {
			kg = append(kg, g)
		}
	}
	s.Gauges = kg
	kh := s.Histograms[:0]
	for _, h := range s.Histograms {
		if !scrubbedName(h.Name) {
			kh = append(kh, h)
		}
	}
	s.Histograms = kh
	return s
}

// scrubbedName reports whether an instrument is scheduling- or
// environment-dependent in its entirety and must not survive Scrub.
func scrubbedName(name string) bool {
	return strings.HasPrefix(name, "runtime.") ||
		strings.HasPrefix(name, "cluster.") ||
		strings.HasPrefix(name, "disk.") ||
		strings.HasPrefix(name, "result.")
}
