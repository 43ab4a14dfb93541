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
// slice response — keyed by the full request tuple. A record is plain
// bytes, so the disk tier can persist it across restarts. Every
// daemon builds this tier: a repeated request skips even the slice and
// the response encoding.

// resultKeyVersion names the layout of the cached records (v2 puts
// the program's statement count before the response); bumping it
// orphans every stale record on disk.
const resultKeyVersion = "jumpslice/result-record/v2\x00"

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

// Hex renders the key as lowercase hex, the form the daemon's ETag
// carries.
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

// ResultCache is a two-tier store of serialized result records:
// byte-budgeted memory LRU over an optional disk segment store. All
// methods are safe for concurrent use.
type ResultCache struct {
	disk *disk.Store

	mu  sync.Mutex
	lru *lru[ResultKey, []byte]

	hits, misses, diskHits, puts *obs.Counter
}

// resultOverhead charges map slot, links and key per resident record.
const resultOverhead = 128

// NewResultCache builds a ResultCache from opts (the zero
// ResultOptions is usable, yielding a memory-only cache).
func NewResultCache(opts ResultOptions) *ResultCache {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 32 << 20
	}
	rec := opts.Recorder
	return &ResultCache{
		disk:     opts.Disk,
		lru:      newLRU[ResultKey, []byte](opts.MaxBytes, rec, "result"),
		hits:     rec.Counter("result.hits"),
		misses:   rec.Counter("result.misses"),
		diskHits: rec.Counter("result.disk_hits"),
		puts:     rec.Counter("result.puts"),
	}
}

// Get returns the record for key and the tier that held it. A disk
// hit is promoted back into memory.
func (rc *ResultCache) Get(key ResultKey) ([]byte, ResultSource) {
	rc.mu.Lock()
	data, ok := rc.lru.get(key)
	rc.mu.Unlock()
	if ok {
		rc.hits.Add(1)
		return data, ResultMemory
	}
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
// records already written through. A record larger than the whole
// tier is refused and counted as an eviction; only its disk copy
// remains.
func (rc *ResultCache) insert(key ResultKey, data []byte) {
	rc.mu.Lock()
	evicted := rc.lru.put(key, data, int64(len(data))+resultOverhead)
	rc.mu.Unlock()
	if rc.disk != nil {
		for _, e := range evicted {
			rc.disk.Put(disk.Key(e.key), e.val)
		}
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
	return ResultStats{Entries: rc.lru.len(), Bytes: rc.lru.bytes, Max: rc.lru.max}
}
