// Package disk is the spill tier under the in-memory result cache: an
// append-only record store that survives restarts, so a redeployed
// node answers its hot keys from disk instead of recomputing every
// slice from scratch (a warm restart).
//
// Records are frames of a seglog directory, each payload the record's
// 32-byte key followed by its data; seglog owns the files, the roll to
// a new segment, the budget and the crash rule. Opening the store
// rebuilds the key index from frame headers and keys alone. Payload
// CRCs are checked lazily on Get (reading gigabytes of payloads at
// boot would defeat a fast warm restart); a record that fails its CRC
// is dropped from the index and reads as a miss, never as bad data.
//
// There is no compaction — re-Putting a key appends a fresh record
// that shadows the old one, and dead space is reclaimed when its
// segment ages out of the budget. Records are not fsynced one by one:
// losing the last few writes in a crash costs recomputes, not
// correctness.
package disk

import (
	"errors"
	"fmt"
	"sync"

	"jumpslice/internal/obs"
	"jumpslice/internal/seglog"
)

// keySize is the length of a Key, which leads every frame's payload.
const keySize = 32

// Key addresses one record: the caller's 32-byte content hash.
type Key [keySize]byte

// Defaults for Options zero values.
const (
	DefaultMaxBytes     = 256 << 20
	DefaultSegmentBytes = 8 << 20
)

// Options configures a Store.
type Options struct {
	// Dir is the segment directory; created if absent. Required.
	Dir string
	// MaxBytes is the total on-disk budget (<= 0 means
	// DefaultMaxBytes). Enforced at segment granularity: oldest sealed
	// segments are deleted whole when the store outgrows it.
	MaxBytes int64
	// SegmentBytes is the roll threshold for the active segment (<= 0
	// means DefaultSegmentBytes).
	SegmentBytes int64
	// MaxRecordBytes bounds one payload (<= 0 means 16 MiB); larger
	// Puts are rejected rather than letting one record pin a segment.
	MaxRecordBytes int64
	// Recorder receives the disk.* counters and gauges.
	Recorder *obs.Registry
}

// Stats is a point-in-time account of the store.
type Stats struct {
	Segments  int   `json:"segments"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Writes    int64 `json:"writes"`
	Corrupt   int64 `json:"corrupt"`
	Truncated int64 `json:"truncated"`
	Reclaimed int64 `json:"reclaimed_segments"`
}

// Store is the record store. All methods are safe for concurrent
// use; reads and writes serialize on one mutex — the tier sits under
// an in-memory cache, so it sees misses and evictions, not the hot
// path.
type Store struct {
	log *seglog.Log

	mu    sync.Mutex
	index map[Key]seglog.Frame
	stats Stats

	m metrics
}

type metrics struct {
	hits, misses, writes *obs.Counter
	corrupt, reclaimed   *obs.Counter
	bytes, entries       *obs.Gauge
	segments             *obs.Gauge
}

func (m *metrics) resolve(rec *obs.Registry) {
	m.hits = rec.Counter("disk.hits")
	m.misses = rec.Counter("disk.misses")
	m.writes = rec.Counter("disk.writes")
	m.corrupt = rec.Counter("disk.corrupt")
	m.reclaimed = rec.Counter("disk.reclaimed_segments")
	m.bytes = rec.Gauge("disk.resident_bytes")
	m.entries = rec.Gauge("disk.entries")
	m.segments = rec.Gauge("disk.segments")
}

// Open loads (or creates) the store at opts.Dir, recovering from any
// torn tail left by a crash.
func Open(opts Options) (*Store, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.MaxRecordBytes <= 0 {
		opts.MaxRecordBytes = 16 << 20
	}
	s := &Store{index: map[Key]seglog.Frame{}}
	s.m.resolve(opts.Recorder)
	s.stats.MaxBytes = opts.MaxBytes
	log, err := seglog.Open(seglog.Options{
		Dir:           opts.Dir,
		SegmentBytes:  opts.SegmentBytes,
		MaxBytes:      opts.MaxBytes,
		MaxFrameBytes: keySize + opts.MaxRecordBytes,
	}, func(f seglog.Frame, head []byte) {
		// Put never writes empty data, so a frame no longer than a key
		// is not a record.
		if f.Len > keySize {
			s.index[Key(head)] = f
		}
	})
	if err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	s.log = log
	s.stats.Truncated = int64(log.Stats().Truncated)
	s.publish()
	return s, nil
}

// Put appends a record for key. Re-putting a present key is a no-op —
// the demotion path calls Put unconditionally on every memory
// eviction, and most victims were already written through.
func (s *Store) Put(key Key, data []byte) error {
	if len(data) == 0 {
		return errors.New("disk: empty record")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; ok {
		return nil
	}
	f, _, err := s.log.Append(key[:], data)
	if err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	s.index[key] = f
	s.stats.Writes++
	s.m.writes.Add(1)
	for _, seg := range s.log.Reclaim() {
		for k, f := range s.index {
			if f.Seg == seg.ID {
				delete(s.index, k)
			}
		}
		s.stats.Reclaimed++
		s.m.reclaimed.Add(1)
	}
	s.publish()
	return nil
}

// Get reads the record for key, verifying its CRC. A missing key or a
// corrupt record returns (nil, false) — corruption is counted and the
// record dropped, so the caller recomputes and overwrites it.
func (s *Store) Get(key Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		s.m.misses.Add(1)
		return nil, false
	}
	p, err := s.log.Read(f)
	if err != nil {
		delete(s.index, key)
		s.stats.Corrupt++
		s.stats.Misses++
		s.m.corrupt.Add(1)
		s.m.misses.Add(1)
		s.m.entries.Add(-1)
		return nil, false
	}
	s.stats.Hits++
	s.m.hits.Add(1)
	return p[keySize:], true
}

// publish refreshes the gauges from the exact ledgers. Caller holds
// s.mu (or is Open, pre-concurrency).
func (s *Store) publish() {
	st := s.log.Stats()
	s.m.bytes.Set(st.Bytes)
	s.m.entries.Set(int64(len(s.index)))
	s.m.segments.Set(int64(st.Segments))
}

// Contains reports whether key is indexed, without reading or
// verifying it. Debug/test use.
func (s *Store) Contains(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Stats returns a point-in-time account of the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.log.Stats()
	st := s.stats
	st.Entries = len(s.index)
	st.Segments = ls.Segments
	st.Bytes = ls.Bytes
	return st
}

// Close syncs and closes the active segment. Put fails afterwards;
// Get still serves what is on disk.
func (s *Store) Close() error {
	return s.log.Close()
}
