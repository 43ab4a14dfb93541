package obs

// Sliding-window SLOs: per-endpoint latency percentiles, error and
// shed rates over a rotating bucket window, with exemplars.
//
// The tracker keeps, per endpoint, a ring of N time buckets each
// covering window/N of wall clock (the default is 10 × 6s = one
// minute). Observing a request lands it in the bucket of the current
// epoch — a bucket whose epoch is stale is reset in place first, so
// rotation is O(1) and needs no background goroutine. Each bucket
// holds integer counters plus the package's standard power-of-two
// histogram ([NumBuckets]int64), so a window percentile is the
// element-wise sum of at most N small arrays — cheap enough to
// compute on every /debug/slo request and /metrics scrape.
//
// Each bucket also remembers its slowest request's ID: the exemplar.
// A p99 spike in a dashboard is only actionable if the operator can
// get from the aggregate back to a concrete request; the exemplar is
// that edge — its ID resolves at /debug/requests?id= while the
// request ring still holds its wide event.
//
// Burn rate follows the standard error-budget formulation: with an
// objective of "err <= 1%", an observed window error rate of 2% burns
// budget at 2× the sustainable rate. Latency objectives ("p99 <=
// 50ms") count requests over the threshold exactly at Observe time
// (no histogram estimation error), and burn against the quantile's
// complement: at p99, up to 1% of requests may be slow, so a 3% slow
// fraction is a 3× burn.
//
// The nil *SLOTracker is a valid no-op, and all methods are safe for
// concurrent use (one mutex; Observe's critical section is a handful
// of integer stores).

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// SLOObjectives are the configured service-level objectives. The zero
// value means "no objectives": rates and percentiles are still
// reported, burn rates are not.
type SLOObjectives struct {
	// Quantile is the latency objective's quantile (0.5, 0.9 or 0.99);
	// 0 when no latency objective is set.
	Quantile float64 `json:"quantile,omitempty"`
	// Latency is the latency objective's threshold: Quantile of
	// requests must complete within it.
	Latency time.Duration `json:"latency_ns,omitempty"`
	// ErrRate is the error-rate objective as a fraction (0.01 for
	// "err <= 1%"); 0 when unset.
	ErrRate float64 `json:"err_rate,omitempty"`
}

// ParseObjectives parses the -slo flag syntax: comma-separated
// key=value pairs, where key is p50/p90/p99 (value a Go duration) or
// err (value a percentage like "1%" or a bare fraction like "0.01").
// At most one latency quantile may be given. The empty string parses
// to the zero (no objectives) value.
func ParseObjectives(s string) (SLOObjectives, error) {
	var o SLOObjectives
	if strings.TrimSpace(s) == "" {
		return o, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return o, fmt.Errorf("slo objective %q: want key=value", part)
		}
		switch k {
		case "p50", "p90", "p99":
			if o.Quantile != 0 {
				return o, fmt.Errorf("slo objective %q: latency quantile already set", part)
			}
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return o, fmt.Errorf("slo objective %q: want a positive duration (e.g. %s=50ms)", part, k)
			}
			switch k {
			case "p50":
				o.Quantile = 0.50
			case "p90":
				o.Quantile = 0.90
			case "p99":
				o.Quantile = 0.99
			}
			o.Latency = d
		case "err":
			f, err := parseRate(v)
			if err != nil {
				return o, fmt.Errorf("slo objective %q: %v", part, err)
			}
			o.ErrRate = f
		default:
			return o, fmt.Errorf("slo objective %q: unknown key %q (want p50, p90, p99, or err)", part, k)
		}
	}
	return o, nil
}

// parseRate accepts "1%" or a bare fraction "0.01" in (0, 1].
func parseRate(v string) (float64, error) {
	pct := strings.HasSuffix(v, "%")
	var f float64
	if _, err := fmt.Sscanf(strings.TrimSuffix(v, "%"), "%g", &f); err != nil {
		return 0, fmt.Errorf("want a percentage (1%%) or fraction (0.01)")
	}
	if pct {
		f /= 100
	}
	if f <= 0 || f > 1 {
		return 0, fmt.Errorf("rate %q outside (0%%, 100%%]", v)
	}
	return f, nil
}

// sloBucket is one time bucket of one endpoint's window.
type sloBucket struct {
	epoch  int64 // which width-period this bucket holds; 0 = never used
	count  int64
	errors int64 // 5xx other than sheds
	sheds  int64 // admission-gate 503s
	slow   int64 // requests over the latency objective
	hist   [NumBuckets]int64
	maxDur int64  // slowest request this bucket saw …
	maxReq uint64 // … and its ID: the exemplar
}

// reset clears a bucket for a new epoch.
func (b *sloBucket) reset(epoch int64) {
	*b = sloBucket{epoch: epoch}
}

// sloWindow is one endpoint's ring of buckets plus its cumulative
// (process-lifetime) totals, which back the Prometheus counters.
type sloWindow struct {
	buckets []sloBucket
	// cumulative totals since process start
	totalCount  int64
	totalErrors int64
	totalSheds  int64
}

// SLOTracker aggregates request outcomes into per-endpoint sliding
// windows. Construct with NewSLOTracker.
type SLOTracker struct {
	mu        sync.Mutex
	width     time.Duration // per-bucket wall-clock width
	n         int           // buckets per window
	obj       SLOObjectives
	endpoints map[string]*sloWindow
	now       func() time.Time // injectable for tests
}

// NewSLOTracker returns a tracker whose window spans the given total
// duration split into buckets rotating buckets (defaults: 60s, 10).
func NewSLOTracker(window time.Duration, buckets int, obj SLOObjectives) *SLOTracker {
	if window <= 0 {
		window = time.Minute
	}
	if buckets < 1 {
		buckets = 10
	}
	return &SLOTracker{
		width:     window / time.Duration(buckets),
		n:         buckets,
		obj:       obj,
		endpoints: map[string]*sloWindow{},
		now:       time.Now,
	}
}

// Objectives returns the configured objectives (zero value on nil).
func (t *SLOTracker) Objectives() SLOObjectives {
	if t == nil {
		return SLOObjectives{}
	}
	return t.obj
}

// Observe records one finished request: its endpoint, response
// status, whether the admission gate shed it, its duration, and its
// request ID (the exemplar candidate). No-op on a nil tracker.
func (t *SLOTracker) Observe(endpoint string, status int, shed bool, dur time.Duration, req uint64) {
	if t == nil {
		return
	}
	ns := int64(dur)
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.endpoints[endpoint]
	if w == nil {
		w = &sloWindow{buckets: make([]sloBucket, t.n)}
		t.endpoints[endpoint] = w
	}
	epoch := t.now().UnixNano() / int64(t.width)
	b := &w.buckets[epoch%int64(t.n)]
	if b.epoch != epoch {
		b.reset(epoch)
	}
	b.count++
	w.totalCount++
	switch {
	case shed:
		b.sheds++
		w.totalSheds++
	case status >= 500:
		b.errors++
		w.totalErrors++
	}
	if t.obj.Latency > 0 && dur > t.obj.Latency {
		b.slow++
	}
	b.hist[bucketOf(ns)]++
	if ns >= b.maxDur {
		b.maxDur, b.maxReq = ns, req
	}
}

// Exemplar points from a window bucket back at a concrete request:
// the slowest one the bucket saw. Its ID resolves at
// /debug/requests?id= while the request ring still holds its wide
// event.
type Exemplar struct {
	// BucketStartNS is the bucket's wall-clock start, nanoseconds
	// since the Unix epoch.
	BucketStartNS int64 `json:"bucket_start_ns"`
	// Request is the slowest request's ID; DurNS its duration.
	Request uint64 `json:"request"`
	DurNS   int64  `json:"dur_ns"`
}

// EndpointSLO is one endpoint's view in an SLOSnapshot. Window fields
// cover the sliding window; Total fields are process-lifetime.
type EndpointSLO struct {
	Endpoint string `json:"endpoint"`
	// Window contents.
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	Sheds     int64   `json:"sheds"`
	ErrorRate float64 `json:"error_rate"`
	ShedRate  float64 `json:"shed_rate"`
	P50NS     int64   `json:"p50_ns"`
	P90NS     int64   `json:"p90_ns"`
	P99NS     int64   `json:"p99_ns"`
	// Slow is the window count of requests over the latency
	// objective; burn rates are budget-consumption multipliers
	// (1.0 = exactly sustainable). Present only with objectives set.
	Slow        int64   `json:"slow_over_objective,omitempty"`
	ErrorBurn   float64 `json:"error_burn,omitempty"`
	LatencyBurn float64 `json:"latency_burn,omitempty"`
	// Cumulative totals since process start (the Prometheus counters).
	TotalRequests int64 `json:"total_requests"`
	TotalErrors   int64 `json:"total_errors"`
	TotalSheds    int64 `json:"total_sheds"`
	// Exemplars carry the slowest request per live window bucket,
	// oldest bucket first.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// SLOSnapshot is a point-in-time view of every endpoint's window,
// endpoints sorted by name.
type SLOSnapshot struct {
	WindowNS   int64         `json:"window_ns"`
	BucketNS   int64         `json:"bucket_ns"`
	Buckets    int           `json:"buckets"`
	Objectives SLOObjectives `json:"objectives"`
	Endpoints  []EndpointSLO `json:"endpoints"`
}

// NearestRank returns the q-quantile (0 < q ≤ 1) of ascending values
// by the nearest-rank method: the ⌈q·n⌉-th smallest value, 0 when
// there are none. The ceiling forgives the float64 product a relative
// error far above its rounding, so a product exact in decimal (0.99 ×
// 1000) gives rank q·n and not one more.
func NearestRank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted)) * (1 - 1e-12)))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// quantileUpperBound returns the histogram-estimated inclusive upper
// bound of the q-quantile: the bound of the bucket where the
// cumulative count first reaches ceil(q·total). The overflow bucket
// reports maxDur (the window's slowest observed value) instead of an
// invented bound.
func quantileUpperBound(hist *[NumBuckets]int64, total int64, q float64, maxDur int64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i := 0; i < NumBuckets; i++ {
		cum += hist[i]
		if cum >= rank {
			if i == NumBuckets-1 {
				return maxDur
			}
			return BucketUpperBound(i)
		}
	}
	return maxDur
}

// Snapshot renders the current window state. Nil tracker returns nil.
func (t *SLOTracker) Snapshot() *SLOSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	epoch := t.now().UnixNano() / int64(t.width)
	oldest := epoch - int64(t.n) + 1
	s := &SLOSnapshot{
		WindowNS:   int64(t.width) * int64(t.n),
		BucketNS:   int64(t.width),
		Buckets:    t.n,
		Objectives: t.obj,
	}
	for name, w := range t.endpoints {
		e := EndpointSLO{
			Endpoint:      name,
			TotalRequests: w.totalCount,
			TotalErrors:   w.totalErrors,
			TotalSheds:    w.totalSheds,
		}
		var hist [NumBuckets]int64
		var maxDur int64
		var slow int64
		for i := range w.buckets {
			b := &w.buckets[i]
			if b.epoch < oldest || b.epoch > epoch || b.count == 0 {
				continue // stale (not yet recycled) or empty bucket
			}
			e.Requests += b.count
			e.Errors += b.errors
			e.Sheds += b.sheds
			slow += b.slow
			for j := range hist {
				hist[j] += b.hist[j]
			}
			if b.maxDur > maxDur {
				maxDur = b.maxDur
			}
			e.Exemplars = append(e.Exemplars, Exemplar{
				BucketStartNS: b.epoch * int64(t.width),
				Request:       b.maxReq,
				DurNS:         b.maxDur,
			})
		}
		sort.Slice(e.Exemplars, func(i, j int) bool {
			return e.Exemplars[i].BucketStartNS < e.Exemplars[j].BucketStartNS
		})
		if e.Requests > 0 {
			e.ErrorRate = float64(e.Errors) / float64(e.Requests)
			e.ShedRate = float64(e.Sheds) / float64(e.Requests)
			e.P50NS = quantileUpperBound(&hist, e.Requests, 0.50, maxDur)
			e.P90NS = quantileUpperBound(&hist, e.Requests, 0.90, maxDur)
			e.P99NS = quantileUpperBound(&hist, e.Requests, 0.99, maxDur)
			if t.obj.ErrRate > 0 {
				e.ErrorBurn = e.ErrorRate / t.obj.ErrRate
			}
			if t.obj.Latency > 0 {
				e.Slow = slow
				budget := 1 - t.obj.Quantile
				if budget > 0 {
					e.LatencyBurn = float64(slow) / float64(e.Requests) / budget
				}
			}
		}
		s.Endpoints = append(s.Endpoints, e)
	}
	sort.Slice(s.Endpoints, func(i, j int) bool { return s.Endpoints[i].Endpoint < s.Endpoints[j].Endpoint })
	return s
}
