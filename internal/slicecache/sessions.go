package slicecache

import (
	"crypto/sha256"

	"jumpslice/internal/core"
)

// Session entries.
//
// The daemon's editor sessions keep a warm core.Analysis per open
// document so a one-line PATCH can re-slice incrementally instead of
// from scratch. Those analyses live in this cache, under explicit
// per-session keys, rather than in a side table: sessions and plain
// content entries share one byte budget and one LRU, so a burst of
// anonymous /slice traffic can push an idle session out (the daemon
// rebuilds it on the next PATCH) and a heavy session load sheds cold
// content entries — neither population can starve the other beyond
// the budget they jointly own.

// sessionKeyVersion domain-separates session keys from content keys:
// no session id can collide with any source hash, because the two key
// spaces hash different leading tags.
const sessionKeyVersion = "jumpslice/session/v1\x00"

// SessionKey derives the cache key a session's analysis is stored
// under.
func SessionKey(id string) Key {
	h := sha256.New()
	h.Write([]byte(sessionKeyVersion))
	h.Write([]byte(id))
	var k Key
	h.Sum(k[:0])
	return k
}

// PutKey stores a ready analysis under an explicit key, replacing any
// previous entry. The entry is byte-accounted like a content entry
// (source length plus the analysis footprint) and competes in the
// same LRU, so it may be evicted under pressure — callers must treat
// GetKey misses as "rebuild", not as errors.
func (c *Cache) PutKey(k Key, source string, a *core.Analysis) {
	cost := int64(len(source)) + a.Footprint() + entryOverhead
	c.mu.Lock()
	c.lru.put(k, entry{a: a}, cost)
	c.mu.Unlock()
}

// GetKey returns the analysis stored under k, if still resident, and
// refreshes its LRU position. Lookups count as cache hits/misses like
// content traffic.
func (c *Cache) GetKey(k Key) (*core.Analysis, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lru.get(k)
	if !ok || e.err != nil {
		c.countLocked(&c.stats.Misses, c.misses)
		return nil, false
	}
	c.countLocked(&c.stats.Hits, c.hits)
	return e.a, true
}

// DeleteKey drops the entry under k, refunding its bytes; it reports
// whether an entry was resident. A deliberate delete is not an
// eviction, so only the resident gauges move.
func (c *Cache) DeleteKey(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.remove(k)
}
