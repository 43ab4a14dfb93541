package slicecache

import (
	"container/list"
	"fmt"
)

// VerifyAccounting cross-checks every internal invariant the cache's
// byte ledger rests on, under the cache's lock:
//
//   - the ledger's bytes equal the sum of the resident entries' costs;
//   - the bytes never exceed the budget (an oversized entry is refused);
//   - the LRU list and the key index hold exactly the same entries;
//   - the list's forward and backward links agree.
//
// Exported to the test package only.
func (c *Cache) VerifyAccounting() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.lru
	var sum int64
	listed := 0
	var prev *list.Element
	for el := l.order.Front(); el != nil; el = el.Next() {
		if el.Prev() != prev {
			return fmt.Errorf("broken back link at entry %d", listed)
		}
		e := el.Value.(*lruEntry[Key, entry])
		if l.index[e.key] != el {
			return fmt.Errorf("listed entry %d missing from the index", listed)
		}
		sum += e.cost
		listed++
		prev = el
	}
	if l.order.Back() != prev {
		return fmt.Errorf("tail does not terminate the list")
	}
	if listed != l.len() {
		return fmt.Errorf("%d listed entries vs %d indexed", listed, l.len())
	}
	if sum != l.bytes {
		return fmt.Errorf("ledger %d bytes, entries sum to %d", l.bytes, sum)
	}
	if l.bytes > l.max {
		return fmt.Errorf("resident %d bytes over budget %d", l.bytes, l.max)
	}
	return nil
}

// Contains reports whether a positive entry for source is resident,
// without touching LRU order or stats.
func (c *Cache) Contains(source string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.lru.index[KeyOf(source)]
	return el != nil && el.Value.(*lruEntry[Key, entry]).val.err == nil
}

// Contains reports whether key is resident in memory, without touching
// LRU order.
func (rc *ResultCache) Contains(key ResultKey) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.lru.index[key] != nil
}
