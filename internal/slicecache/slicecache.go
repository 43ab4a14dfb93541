// Package slicecache is a content-addressed cache of completed slice
// analyses. The repeated-query workload the daemon and the batch
// engines serve — many clients submitting the same source text —
// re-runs the full Agrawal pipeline (CFG → postdominators → CDG →
// dataflow → PDG → LST → worklists) per request even though the
// resulting core.Analysis is immutable after Analyze and one analysis
// serves unlimited criteria and algorithms. This package memoizes that
// work:
//
//   - Keys are content hashes: SHA-256 over the program source plus a
//     version tag naming the algorithm set, so a pipeline change
//     invalidates every stale entry by construction (KeyOf).
//   - Storage is one byte-accounted LRU (the same list the ResultCache
//     uses) behind one mutex, which also guards the singleflight table
//     and the counters. Entry cost is the analysis's deterministic
//     Footprint plus the source length, and the ledger — Stats().Bytes
//     — always equals the sum of resident entry costs. An entry
//     costlier than the whole budget is refused and counted as an
//     eviction: its caller still gets the analysis, and every resident
//     entry stays.
//   - A singleflight layer coalesces concurrent identical requests: N
//     goroutines asking for the same key trigger exactly one analysis
//     and share the result. Each waiter keeps its own context — a
//     canceled waiter detaches without killing the shared computation,
//     and the computation itself is canceled only when every waiter
//     has detached.
//   - Negative entries cache build errors (parse failures, size-limit
//     rejections) under a short TTL, so a flood of the same malformed
//     input is answered from memory instead of re-parsed. Context
//     cancellation errors are never cached: they describe the caller,
//     not the content.
//
// Cached analyses are stored detached (no context, no tracer); callers
// bind a cached Analysis to their own request with core.Rebind before
// slicing. The cache reports hits, misses, coalesced waiters, negative
// hits, evictions and resident bytes both through Stats and, when an
// obs.Registry is attached, through the metric names pinned by the
// Prometheus goldens (jumpslice_cache_hits_total and friends).
package slicecache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"time"

	"jumpslice/internal/core"
	"jumpslice/internal/obs"
)

// keyVersion names the analysis pipeline whose results are cached. It
// is hashed into every key, so bumping it (when the algorithm set or
// the Analysis representation changes shape) orphans all old entries
// rather than serving stale analyses.
const keyVersion = "jumpslice/agrawal-pipeline/v1\x00"

// Key is the content address of one cached analysis: SHA-256 over the
// version tag and the program source.
type Key [sha256.Size]byte

// KeyOf hashes a program source into its cache key.
func KeyOf(source string) Key {
	h := sha256.New()
	h.Write([]byte(keyVersion))
	h.Write([]byte(source))
	var k Key
	h.Sum(k[:0])
	return k
}

// Hex renders the key as lowercase hex, the form ETags and debug
// endpoints expose.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// Outcome classifies how one Get was answered.
type Outcome int

const (
	// Miss: this call ran the analysis (it was the flight leader).
	Miss Outcome = iota
	// Hit: answered from a resident entry, positive or negative.
	Hit
	// Coalesced: joined another caller's in-flight analysis.
	Coalesced
)

// String names the outcome as the daemon's X-Cache header reports it.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	}
	return "miss"
}

// Options configures a Cache.
type Options struct {
	// MaxBytes is the byte budget; <= 0 means DefaultMaxBytes.
	MaxBytes int64
	// Recorder, when non-nil, receives the cache's counters and
	// gauges (cache.hits, cache.misses, cache.coalesced,
	// cache.evictions, cache.neg_hits, cache.resident_bytes,
	// cache.entries).
	Recorder *obs.Registry
	// Now overrides the clock (negative-TTL tests); nil means
	// time.Now.
	Now func() time.Time
}

// Defaults: the byte budget for a zero Options.MaxBytes, and how long
// a negative (error) entry is served.
const (
	DefaultMaxBytes = 64 << 20
	DefaultNegTTL   = 2 * time.Second
)

// entryOverhead charges the map slot, LRU links and key storage per
// resident entry; negative entries additionally keep their error
// string.
const entryOverhead = 256

// Stats is a point-in-time account of the cache. Bytes and Entries
// are exact: Bytes always equals the summed cost of resident entries.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	NegHits   int64 `json:"neg_hits"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

// Cache is the content-addressed analysis cache. All methods are safe
// for concurrent use.
type Cache struct {
	now func() time.Time
	// Metric mirrors of the stats counters (the lru mirrors its own
	// ledger); nil on a nil registry, and every obs method is nil-safe.
	hits, misses, coalesced, negHits *obs.Counter

	mu      sync.Mutex // guards everything below
	lru     *lru[Key, entry]
	flights map[Key]*flight
	stats   Stats // counters; Stats fills in the ledger from lru
}

// entry is one resident cache line: a detached analysis (positive) or
// a build error with an expiry (negative).
type entry struct {
	a   *core.Analysis
	err error
	exp time.Time // zero for positive entries
}

// flight is one in-progress analysis shared by every concurrent Get
// of its key. waiters is guarded by the cache's mutex; a and err are
// published by closing done.
type flight struct {
	done    chan struct{}
	a       *core.Analysis
	err     error
	waiters int
	cancel  context.CancelFunc
}

// New builds a Cache from opts (the zero Options is usable).
func New(opts Options) *Cache {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	rec := opts.Recorder
	c := &Cache{
		now:       opts.Now,
		hits:      rec.Counter("cache.hits"),
		misses:    rec.Counter("cache.misses"),
		coalesced: rec.Counter("cache.coalesced"),
		negHits:   rec.Counter("cache.neg_hits"),
		lru:       newLRU[Key, entry](opts.MaxBytes, rec, "cache"),
		flights:   map[Key]*flight{},
		stats:     Stats{MaxBytes: opts.MaxBytes},
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Get returns the analysis of source, running build at most once per
// key across all concurrent callers. The returned Outcome reports how
// the call was answered. ctx cancels only this caller's wait: an
// in-flight shared analysis keeps running while any other waiter
// remains, and is canceled when the last one detaches. The returned
// analysis is detached — Rebind it before slicing on behalf of a
// request. A non-context build error is returned to every waiter and
// cached negatively for DefaultNegTTL.
func (c *Cache) Get(ctx context.Context, source string, build func(context.Context) (*core.Analysis, error)) (*core.Analysis, Outcome, error) {
	key := KeyOf(source)

	c.mu.Lock()
	if e, ok := c.lru.get(key); ok {
		if e.err == nil || !c.now().After(e.exp) {
			if e.err != nil {
				c.countLocked(&c.stats.NegHits, c.negHits)
			} else {
				c.countLocked(&c.stats.Hits, c.hits)
			}
			c.mu.Unlock()
			return e.a, Hit, e.err
		}
		c.lru.evict(key) // expired negative entry: rebuild below
	}
	// A flight every waiter has left is being canceled: start afresh
	// rather than join it.
	if f := c.flights[key]; f != nil && f.waiters > 0 {
		f.waiters++
		c.countLocked(&c.stats.Coalesced, c.coalesced)
		c.mu.Unlock()
		return c.wait(ctx, f, Coalesced)
	}
	// Miss: this caller leads. The build runs under its own cancelable
	// context rooted in Background, so the leader's own cancellation
	// does not take the shared computation down with it.
	bctx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.flights[key] = f
	c.countLocked(&c.stats.Misses, c.misses)
	c.mu.Unlock()
	go c.run(bctx, key, f, int64(len(source)), build)
	return c.wait(ctx, f, Miss)
}

// run executes one flight's build and publishes the result: into the
// LRU (positively or negatively) and to every waiter via done.
func (c *Cache) run(bctx context.Context, key Key, f *flight, srcLen int64, build func(context.Context) (*core.Analysis, error)) {
	a, err := build(bctx)
	if err == nil && a == nil {
		err = errors.New("slicecache: build returned neither analysis nor error")
	}
	f.a, f.err = a, err

	// An abandoned build says nothing about the content.
	keep := !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	e, cost := entry{a: a, err: err}, srcLen+entryOverhead
	if err == nil {
		cost += a.Footprint()
	} else {
		cost += int64(len(err.Error()))
		e.exp = c.now().Add(DefaultNegTTL)
	}
	c.mu.Lock()
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	if keep {
		c.lru.put(key, e, cost)
	}
	c.mu.Unlock()
	close(f.done)
	f.cancel() // release the build context; a no-op if already canceled
}

// wait blocks until the flight completes or ctx is canceled. A
// completed flight always wins the race against cancellation, so a
// result that is ready is never thrown away.
func (c *Cache) wait(ctx context.Context, f *flight, out Outcome) (*core.Analysis, Outcome, error) {
	var cancelc <-chan struct{}
	if ctx != nil {
		cancelc = ctx.Done()
	}
	select {
	case <-f.done:
		return f.a, out, f.err
	case <-cancelc:
		select {
		case <-f.done:
			return f.a, out, f.err
		default:
		}
		c.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		c.mu.Unlock()
		if last {
			f.cancel()
		}
		return nil, out, ctx.Err()
	}
}

// countLocked bumps one counter and its metric mirror. Caller holds
// c.mu.
func (c *Cache) countLocked(field *int64, ctr *obs.Counter) {
	*field++
	ctr.Add(1)
}

// Stats returns a consistent point-in-time account: the counters and
// the exact count and cost of resident entries.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Evictions, s.Bytes, s.Entries = c.lru.evictions, c.lru.bytes, c.lru.len()
	return s
}
