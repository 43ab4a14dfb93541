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
//   - Storage is a sharded, byte-accounted LRU. Each shard owns a
//     fraction of the byte budget behind its own mutex, so concurrent
//     requests for different programs do not serialize; entry cost is
//     the analysis's deterministic Footprint plus the source length,
//     and the ledger — Stats().Bytes — always equals the sum of
//     resident entry costs.
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
	// MaxBytes is the total byte budget across all shards; <= 0 means
	// DefaultMaxBytes. Each shard owns MaxBytes/Shards.
	MaxBytes int64
	// Shards is the shard count, rounded up to a power of two; <= 0
	// means DefaultShards.
	Shards int
	// NegTTL bounds how long a negative (error) entry is served;
	// <= 0 means DefaultNegTTL.
	NegTTL time.Duration
	// Recorder, when non-nil, receives the cache's counters and
	// gauges (cache.hits, cache.misses, cache.coalesced,
	// cache.evictions, cache.neg_hits, cache.resident_bytes,
	// cache.entries).
	Recorder *obs.Registry
	// Now overrides the clock (negative-TTL tests); nil means
	// time.Now.
	Now func() time.Time
}

// Defaults for Options zero values.
const (
	DefaultMaxBytes = 64 << 20
	DefaultShards   = 16
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

// Cache is the sharded content-addressed analysis cache. All methods
// are safe for concurrent use.
type Cache struct {
	shards []*shard
	mask   uint64
	negTTL time.Duration
	now    func() time.Time

	mu    sync.Mutex // guards the aggregate stats below
	stats Stats

	m cacheMetrics
}

// cacheMetrics is the pre-resolved instrument set; all fields are nil
// on a nil registry, and every obs method is nil-safe.
type cacheMetrics struct {
	hits, misses, coalesced *obs.Counter
	negHits, evictions      *obs.Counter
	bytes, entries          *obs.Gauge
}

func (m *cacheMetrics) resolve(rec *obs.Registry) {
	m.hits = rec.Counter("cache.hits")
	m.misses = rec.Counter("cache.misses")
	m.coalesced = rec.Counter("cache.coalesced")
	m.negHits = rec.Counter("cache.neg_hits")
	m.evictions = rec.Counter("cache.evictions")
	m.bytes = rec.Gauge("cache.resident_bytes")
	m.entries = rec.Gauge("cache.entries")
}

// entry is one resident cache line: a detached analysis (positive) or
// a build error with an expiry (negative). Entries form a per-shard
// intrusive LRU list, most recent at head.
type entry struct {
	key  Key
	a    *core.Analysis
	err  error
	cost int64
	exp  time.Time // zero for positive entries
	prev *entry
	next *entry
}

// flight is one in-progress analysis shared by every concurrent Get
// of its key. waiters is guarded by the owning shard's mutex; a and
// err are published by closing done.
type flight struct {
	done    chan struct{}
	a       *core.Analysis
	err     error
	waiters int
	cancel  context.CancelFunc
}

// shard is one lock domain: a fraction of the key space and the byte
// budget.
type shard struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[Key]*entry
	flights map[Key]*flight
	head    *entry // most recently used
	tail    *entry // least recently used; next eviction victim
}

// New builds a Cache from opts (the zero Options is usable).
func New(opts Options) *Cache {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	if opts.NegTTL <= 0 {
		opts.NegTTL = DefaultNegTTL
	}
	c := &Cache{
		shards: make([]*shard, shards),
		mask:   uint64(shards - 1),
		negTTL: opts.NegTTL,
		now:    opts.Now,
	}
	if c.now == nil {
		c.now = time.Now
	}
	perShard := opts.MaxBytes / int64(shards)
	if perShard < 1 {
		perShard = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			max:     perShard,
			entries: map[Key]*entry{},
			flights: map[Key]*flight{},
		}
	}
	c.stats.MaxBytes = perShard * int64(shards)
	c.m.resolve(opts.Recorder)
	return c
}

// shardOf routes a key to its shard by the key's leading bytes —
// SHA-256 output is uniform, so any byte window balances the shards.
func (c *Cache) shardOf(k Key) *shard {
	idx := uint64(k[0]) | uint64(k[1])<<8 | uint64(k[2])<<16 | uint64(k[3])<<24
	return c.shards[idx&c.mask]
}

// Get returns the analysis of source, running build at most once per
// key across all concurrent callers. The returned Outcome reports how
// the call was answered. ctx cancels only this caller's wait: an
// in-flight shared analysis keeps running while any other waiter
// remains, and is canceled when the last one detaches. The returned
// analysis is detached — Rebind it before slicing on behalf of a
// request. A non-context build error is returned to every waiter and
// cached negatively for the configured TTL.
func (c *Cache) Get(ctx context.Context, source string, build func(context.Context) (*core.Analysis, error)) (*core.Analysis, Outcome, error) {
	key := KeyOf(source)
	sh := c.shardOf(key)

	sh.mu.Lock()
	if e := sh.entries[key]; e != nil {
		if e.err != nil && c.now().After(e.exp) {
			c.evictLocked(sh, e) // expired negative entry: rebuild below
		} else {
			sh.touchLocked(e)
			a, err := e.a, e.err
			sh.mu.Unlock()
			if err != nil {
				c.count(&c.stats.NegHits, c.m.negHits)
				return nil, Hit, err
			}
			c.count(&c.stats.Hits, c.m.hits)
			return a, Hit, nil
		}
	}
	// A flight every waiter has left is being canceled: start afresh
	// rather than join it.
	if f := sh.flights[key]; f != nil && f.waiters > 0 {
		f.waiters++
		sh.mu.Unlock()
		c.count(&c.stats.Coalesced, c.m.coalesced)
		return c.wait(ctx, sh, f, Coalesced)
	}
	// Miss: this caller leads. The build runs under its own cancelable
	// context rooted in Background, so the leader's own cancellation
	// does not take the shared computation down with it.
	bctx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	sh.flights[key] = f
	sh.mu.Unlock()
	c.count(&c.stats.Misses, c.m.misses)
	go c.run(bctx, sh, key, f, int64(len(source)), build)
	return c.wait(ctx, sh, f, Miss)
}

// run executes one flight's build and publishes the result: into the
// LRU (positively or negatively) and to every waiter via done.
func (c *Cache) run(bctx context.Context, sh *shard, key Key, f *flight, srcLen int64, build func(context.Context) (*core.Analysis, error)) {
	a, err := build(bctx)
	if err == nil && a == nil {
		err = errors.New("slicecache: build returned neither analysis nor error")
	}
	f.a, f.err = a, err

	sh.mu.Lock()
	if sh.flights[key] == f {
		delete(sh.flights, key)
	}
	switch {
	case err == nil:
		c.insertLocked(sh, &entry{key: key, a: a, cost: srcLen + a.Footprint() + entryOverhead})
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// An abandoned build says nothing about the content.
	default:
		c.insertLocked(sh, &entry{
			key:  key,
			err:  err,
			cost: srcLen + int64(len(err.Error())) + entryOverhead,
			exp:  c.now().Add(c.negTTL),
		})
	}
	sh.mu.Unlock()
	close(f.done)
	f.cancel() // release the build context; a no-op if already canceled
}

// wait blocks until the flight completes or ctx is canceled. A
// completed flight always wins the race against cancellation, so a
// result that is ready is never thrown away.
func (c *Cache) wait(ctx context.Context, sh *shard, f *flight, out Outcome) (*core.Analysis, Outcome, error) {
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
		sh.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		sh.mu.Unlock()
		if last {
			f.cancel()
		}
		return nil, out, ctx.Err()
	}
}

// count bumps one aggregate stat and its mirror counter.
func (c *Cache) count(field *int64, ctr *obs.Counter) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
	ctr.Add(1)
}

// evictLocked removes e from its shard and settles every ledger: the
// eviction counter and the resident-bytes/entries gauges move in the
// same critical section as the shard's own byte count, so the gauges
// always equal the exact cross-shard sums. Caller holds sh.mu.
func (c *Cache) evictLocked(sh *shard, e *entry) {
	sh.removeLocked(e)
	c.count(&c.stats.Evictions, c.m.evictions)
	c.m.bytes.Add(-e.cost)
	c.m.entries.Add(-1)
}

// insertLocked adds e to the shard (replacing any stale entry with
// the same key), charges its cost, and evicts from the LRU tail until
// the shard fits its budget. An entry costlier than the whole shard
// budget is inserted and immediately evicted — returned to its
// waiters but never resident. Caller holds sh.mu.
func (c *Cache) insertLocked(sh *shard, e *entry) {
	if old := sh.entries[e.key]; old != nil {
		c.evictLocked(sh, old)
	}
	sh.entries[e.key] = e
	sh.pushFrontLocked(e)
	sh.bytes += e.cost
	c.m.bytes.Add(e.cost)
	c.m.entries.Add(1)
	for sh.bytes > sh.max && sh.tail != nil {
		c.evictLocked(sh, sh.tail)
	}
}

// touchLocked moves e to the LRU head. Caller holds sh.mu.
func (sh *shard) touchLocked(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlinkLocked(e)
	sh.pushFrontLocked(e)
}

// pushFrontLocked links e as the most recently used entry.
func (sh *shard) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// unlinkLocked removes e from the LRU list only.
func (sh *shard) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// removeLocked evicts e: unlinks it, drops it from the map, refunds
// its cost. Caller holds sh.mu and accounts the eviction.
func (sh *shard) removeLocked(e *entry) {
	sh.unlinkLocked(e)
	delete(sh.entries, e.key)
	sh.bytes -= e.cost
}

// Stats returns a consistent point-in-time account: the counters and
// an exact sum of resident entries and bytes across shards.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Bytes += sh.bytes
		s.Entries += len(sh.entries)
		sh.mu.Unlock()
	}
	return s
}

// Contains reports whether a positive entry for source is resident,
// without touching LRU order or stats. Debug/test use.
func (c *Cache) Contains(source string) bool {
	key := KeyOf(source)
	sh := c.shardOf(key)
	sh.mu.Lock()
	e := sh.entries[key]
	ok := e != nil && e.err == nil
	sh.mu.Unlock()
	return ok
}
