package slicecache

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"jumpslice/internal/obs"
	"jumpslice/internal/slicecache/disk"
)

// This file is the result-record tier: where the analysis Cache above
// memoizes the expensive middle of the pipeline (a *core.Analysis,
// which is pointer-rich and deliberately not serializable), the
// ResultCache memoizes finished answers — the canonical JSON of one
// slice response — keyed by the full request tuple. Serialized bytes
// are what can cross process boundaries, so this tier is what peer
// fill ships between nodes and what the disk tier persists across
// restarts.

// resultKeyVersion names the response encoding whose records are
// cached; bumping it orphans every stale record on disk and in peers.
const resultKeyVersion = "jumpslice/result-record/v1\x00"

// ResultKey is the content address of one finished result: SHA-256
// over the version tag and the request tuple.
type ResultKey [sha256.Size]byte

// ResultKeyOf hashes the request tuple (source, var, line, algo,
// explain, ... — the same fields the daemon's ETag covers) into a
// result key. Fields are NUL-separated so no two tuples collide by
// concatenation.
func ResultKeyOf(fields ...string) ResultKey {
	h := sha256.New()
	h.Write([]byte(resultKeyVersion))
	for _, f := range fields {
		h.Write([]byte(f))
		h.Write([]byte{0})
	}
	var k ResultKey
	h.Sum(k[:0])
	return k
}

// Hex renders the key as lowercase hex, the form the cluster's
// /internal/fill?key= parameter carries.
func (k ResultKey) Hex() string { return hex.EncodeToString(k[:]) }

// ResultSource reports which tier answered a ResultCache.Get.
type ResultSource int

const (
	// ResultMiss: neither tier holds the key.
	ResultMiss ResultSource = iota
	// ResultMemory: answered from the in-memory LRU.
	ResultMemory
	// ResultDisk: answered from the disk tier (and promoted).
	ResultDisk
)

// ResultOptions configures a ResultCache.
type ResultOptions struct {
	// MaxBytes is the in-memory budget (<= 0 means 32 MiB).
	MaxBytes int64
	// Disk, when non-nil, is the spill tier: every Put writes through
	// (so hot records survive a restart, not just evicted ones),
	// memory evictions demote, and disk hits promote back into memory.
	Disk *disk.Store
	// Recorder receives the result.* counters and gauges.
	Recorder *obs.Registry
}

// resultEntry is one resident record in the memory LRU.
type resultEntry struct {
	key  ResultKey
	data []byte
	prev *resultEntry
	next *resultEntry
}

// ResultCache is a two-tier store of serialized result records:
// byte-budgeted memory LRU over an optional disk segment store. All
// methods are safe for concurrent use.
type ResultCache struct {
	max  int64
	disk *disk.Store

	mu      sync.Mutex
	entries map[ResultKey]*resultEntry
	bytes   int64
	head    *resultEntry
	tail    *resultEntry

	hits, misses, diskHits *obs.Counter
	puts, evictions        *obs.Counter
	bytesG, entriesG       *obs.Gauge
}

// resultOverhead charges map slot, links and key per resident record.
const resultOverhead = 128

// NewResultCache builds a ResultCache from opts (the zero
// ResultOptions is usable, yielding a memory-only cache).
func NewResultCache(opts ResultOptions) *ResultCache {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 32 << 20
	}
	rc := &ResultCache{
		max:     opts.MaxBytes,
		disk:    opts.Disk,
		entries: map[ResultKey]*resultEntry{},
	}
	rec := opts.Recorder
	rc.hits = rec.Counter("result.hits")
	rc.misses = rec.Counter("result.misses")
	rc.diskHits = rec.Counter("result.disk_hits")
	rc.puts = rec.Counter("result.puts")
	rc.evictions = rec.Counter("result.evictions")
	rc.bytesG = rec.Gauge("result.resident_bytes")
	rc.entriesG = rec.Gauge("result.entries")
	return rc
}

// Get returns the record for key and the tier that held it. A disk
// hit is promoted back into memory.
func (rc *ResultCache) Get(key ResultKey) ([]byte, ResultSource) {
	rc.mu.Lock()
	if e := rc.entries[key]; e != nil {
		rc.touchLocked(e)
		data := e.data
		rc.mu.Unlock()
		rc.hits.Add(1)
		return data, ResultMemory
	}
	rc.mu.Unlock()
	if rc.disk != nil {
		if data, ok := rc.disk.Get(disk.Key(key)); ok {
			rc.diskHits.Add(1)
			rc.insert(key, data) // promote
			return data, ResultDisk
		}
	}
	rc.misses.Add(1)
	return nil, ResultMiss
}

// Contains reports whether key is resident in memory, without
// touching LRU order. Debug/test use.
func (rc *ResultCache) Contains(key ResultKey) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.entries[key] != nil
}

// Put stores a record in memory and writes it through to the disk
// tier, so a restart finds the hot set on disk — not only the part
// that happened to be evicted first.
func (rc *ResultCache) Put(key ResultKey, data []byte) {
	rc.puts.Add(1)
	rc.insert(key, data)
	if rc.disk != nil {
		rc.disk.Put(disk.Key(key), data) // best-effort; errors cost warmth only
	}
}

// insert adds (or refreshes) a memory entry and evicts from the LRU
// tail to fit the budget. Evictions demote to disk — a no-op for
// records already written through.
func (rc *ResultCache) insert(key ResultKey, data []byte) {
	cost := int64(len(data)) + resultOverhead
	if cost > rc.max {
		return // larger than the whole tier: skip memory, keep disk copy
	}
	type demotion struct {
		key  ResultKey
		data []byte
	}
	var demote []demotion
	rc.mu.Lock()
	if old := rc.entries[key]; old != nil {
		rc.removeLocked(old)
	}
	e := &resultEntry{key: key, data: data}
	rc.entries[key] = e
	rc.pushFrontLocked(e)
	rc.bytes += cost
	rc.bytesG.Add(cost)
	rc.entriesG.Add(1)
	for rc.bytes > rc.max && rc.tail != nil {
		victim := rc.tail
		rc.removeLocked(victim)
		rc.evictions.Add(1)
		if rc.disk != nil {
			demote = append(demote, demotion{victim.key, victim.data})
		}
	}
	rc.mu.Unlock()
	for _, d := range demote {
		rc.disk.Put(disk.Key(d.key), d.data)
	}
}

// removeLocked unlinks and uncharges e. Caller holds rc.mu.
func (rc *ResultCache) removeLocked(e *resultEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		rc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		rc.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(rc.entries, e.key)
	cost := int64(len(e.data)) + resultOverhead
	rc.bytes -= cost
	rc.bytesG.Add(-cost)
	rc.entriesG.Add(-1)
}

// touchLocked moves e to the LRU head. Caller holds rc.mu.
func (rc *ResultCache) touchLocked(e *resultEntry) {
	if rc.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		rc.tail = e.prev
	}
	e.prev = nil
	e.next = rc.head
	if rc.head != nil {
		rc.head.prev = e
	}
	rc.head = e
	if rc.tail == nil {
		rc.tail = e
	}
}

// pushFrontLocked links e as most recently used. Caller holds rc.mu.
func (rc *ResultCache) pushFrontLocked(e *resultEntry) {
	e.prev = nil
	e.next = rc.head
	if rc.head != nil {
		rc.head.prev = e
	}
	rc.head = e
	if rc.tail == nil {
		rc.tail = e
	}
}

// ResultStats is a point-in-time account of the memory tier.
type ResultStats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Max     int64 `json:"max_bytes"`
}

// ResultStats returns the memory tier's ledgers (the disk tier
// reports its own Stats).
func (rc *ResultCache) ResultStats() ResultStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return ResultStats{Entries: len(rc.entries), Bytes: rc.bytes, Max: rc.max}
}
