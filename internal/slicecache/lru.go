package slicecache

import (
	"container/list"

	"jumpslice/internal/obs"
)

// lru is the byte-budgeted least-recently-used map under both cache
// tiers: the analysis Cache and the ResultCache. It is not safe for
// concurrent use; each tier guards its lru with its own mutex. It
// keeps the tier's ledger — resident bytes, entries and evictions —
// and mirrors it into the tier's <prefix>.resident_bytes,
// <prefix>.entries and <prefix>.evictions instruments in the same step.
type lru[K comparable, V any] struct {
	max       int64
	bytes     int64
	evictions int64
	order     *list.List // of *lruEntry[K, V], most recently used at the front
	index     map[K]*list.Element

	bytesG, entriesG *obs.Gauge // nil-safe
	evictionsC       *obs.Counter
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

func newLRU[K comparable, V any](max int64, rec *obs.Registry, prefix string) *lru[K, V] {
	return &lru[K, V]{
		max:        max,
		order:      list.New(),
		index:      map[K]*list.Element{},
		bytesG:     rec.Gauge(prefix + ".resident_bytes"),
		entriesG:   rec.Gauge(prefix + ".entries"),
		evictionsC: rec.Counter(prefix + ".evictions"),
	}
}

func (l *lru[K, V]) len() int { return len(l.index) }

// get returns the value under k and marks it most recently used.
func (l *lru[K, V]) get(k K) (v V, ok bool) {
	el := l.index[k]
	if el == nil {
		return v, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// remove drops the entry under k and refunds its cost; it reports
// whether one was resident. A removal is not an eviction.
func (l *lru[K, V]) remove(k K) bool {
	el := l.index[k]
	if el == nil {
		return false
	}
	l.unlink(el)
	return true
}

// evict is remove counted as an eviction.
func (l *lru[K, V]) evict(k K) {
	if l.remove(k) {
		l.countEviction()
	}
}

// put stores v under k as the most recently used entry, replacing any
// entry already under k, then evicts from the tail until the budget
// holds and returns the evicted entries. An entry costlier than the
// whole budget is refused and counted as one eviction: the stale
// entry under k is dropped, and every other resident entry stays.
func (l *lru[K, V]) put(k K, v V, cost int64) (evicted []*lruEntry[K, V]) {
	l.remove(k)
	if cost > l.max {
		l.countEviction()
		return nil
	}
	l.index[k] = l.order.PushFront(&lruEntry[K, V]{key: k, val: v, cost: cost})
	l.charge(cost, 1)
	for l.bytes > l.max {
		evicted = append(evicted, l.unlink(l.order.Back()))
		l.countEviction()
	}
	return evicted
}

// unlink removes el from the list and the index and refunds its cost.
func (l *lru[K, V]) unlink(el *list.Element) *lruEntry[K, V] {
	e := l.order.Remove(el).(*lruEntry[K, V])
	delete(l.index, e.key)
	l.charge(-e.cost, -1)
	return e
}

func (l *lru[K, V]) charge(cost, entries int64) {
	l.bytes += cost
	l.bytesG.Add(cost)
	l.entriesG.Add(entries)
}

func (l *lru[K, V]) countEviction() {
	l.evictions++
	l.evictionsC.Add(1)
}
