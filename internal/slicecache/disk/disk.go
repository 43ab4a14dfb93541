// Package disk is the spill tier under the in-memory result cache: an
// append-only segment store that survives restarts, so a redeployed
// node answers its hot keys from disk instead of recomputing every
// slice from scratch (a warm restart).
//
// The layout is deliberately boring. Records append to a single
// active segment file; when the active segment passes the configured
// roll size it is sealed and a new one starts. Each record carries its
// 32-byte key, payload length, and a CRC32 of the payload, so a crash
// mid-write is detected structurally: opening the store scans record
// headers, and the first record whose bytes run past the end of its
// file marks the torn tail — the file is truncated back to the last
// intact record and appending resumes there. Payload CRCs are checked
// lazily on Get (scanning gigabytes of payloads at boot would defeat
// the point of a fast warm restart); a record that fails its CRC is
// dropped from the index and reads as a miss, never as bad data.
//
// The byte budget is enforced at segment granularity: when the store
// outgrows MaxBytes, the oldest sealed segments are deleted whole.
// There is no compaction — re-Putting a key appends a fresh record
// that shadows the old one, and dead space is reclaimed when its
// segment ages out. Records are not fsynced individually: losing the
// last few writes in a crash costs recomputes, not correctness.
package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"jumpslice/internal/obs"
)

// Key addresses one record: the caller's 32-byte content hash.
type Key [32]byte

// headerSize is the fixed per-record header: key (32) + payload
// length (4, LE) + payload CRC32-IEEE (4, LE).
const headerSize = 32 + 4 + 4

const (
	segPrefix = "seg-"
	segSuffix = ".dat"
)

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

// loc points the index at one record's payload.
type loc struct {
	seg int64
	off int64 // payload offset within the segment
	len uint32
	crc uint32
}

// segment is one on-disk file's bookkeeping.
type segment struct {
	id    int64
	path  string
	bytes int64
}

// Store is the segment store. All methods are safe for concurrent
// use; reads and writes serialize on one mutex — the tier sits under
// an in-memory cache, so it sees misses and evictions, not the hot
// path.
type Store struct {
	opts Options

	mu     sync.Mutex
	index  map[Key]loc
	sealed []*segment // oldest first
	active *segment
	file   *os.File // active segment, opened for append
	nextID int64
	closed bool
	stats  Stats

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
	if opts.Dir == "" {
		return nil, errors.New("disk: Dir is required")
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.MaxRecordBytes <= 0 {
		opts.MaxRecordBytes = 16 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	s := &Store{
		opts:   opts,
		index:  map[Key]loc{},
		nextID: 1,
	}
	s.m.resolve(opts.Recorder)
	s.stats.MaxBytes = opts.MaxBytes

	ids, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		seg := &segment{id: id, path: segPath(opts.Dir, id)}
		if err := s.scan(seg); err != nil {
			return nil, err
		}
		s.sealed = append(s.sealed, seg)
		s.nextID = id + 1
	}
	// The newest segment stays active: reopen it for append so a
	// restart continues the file instead of leaking a short segment per
	// boot.
	if n := len(s.sealed); n > 0 {
		s.active = s.sealed[n-1]
		s.sealed = s.sealed[:n-1]
		s.file, err = os.OpenFile(s.active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("disk: %w", err)
		}
	} else if err := s.roll(); err != nil {
		return nil, err
	}
	s.publish()
	return s, nil
}

// listSegments returns the segment ids present in dir, ascending.
func listSegments(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	var ids []int64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		id, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil || id <= 0 {
			continue // not ours; leave it alone
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids, nil
}

func segPath(dir string, id int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, id, segSuffix))
}

// scan walks one segment's record headers, indexing intact records
// and truncating the file at the first torn one. Payload CRCs are not
// verified here — Get checks them lazily.
func (s *Store) scan(seg *segment) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	size := fi.Size()

	var off int64
	var hdr [headerSize]byte
	for off+headerSize <= size {
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			break
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[32:36]))
		// Put never writes empty records, so plen == 0 is zero-filled
		// garbage from a torn write, not data.
		if plen == 0 || plen > s.opts.MaxRecordBytes || off+headerSize+plen > size {
			break // torn or nonsense record: the tail ends here
		}
		var key Key
		copy(key[:], hdr[:32])
		s.index[key] = loc{
			seg: seg.id,
			off: off + headerSize,
			len: uint32(plen),
			crc: binary.LittleEndian.Uint32(hdr[36:40]),
		}
		off += headerSize + plen
	}
	if off < size {
		// Crash-torn tail: drop the partial record so appends resume on
		// a record boundary.
		if err := os.Truncate(seg.path, off); err != nil {
			return fmt.Errorf("disk: truncating torn tail of %s: %w", seg.path, err)
		}
		s.stats.Truncated++
	}
	seg.bytes = off
	return nil
}

// roll seals the active segment (if any) and starts a new one.
// Caller holds s.mu (or is Open, pre-concurrency).
func (s *Store) roll() error {
	if s.file != nil {
		s.file.Sync()
		s.file.Close()
		s.sealed = append(s.sealed, s.active)
	}
	seg := &segment{id: s.nextID, path: segPath(s.opts.Dir, s.nextID)}
	f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	s.nextID++
	s.active = seg
	s.file = f
	return nil
}

// Put appends a record for key. Re-putting a present key is a no-op —
// the demotion path calls Put unconditionally on every memory
// eviction, and most victims were already written through.
func (s *Store) Put(key Key, data []byte) error {
	if len(data) == 0 {
		return errors.New("disk: empty record")
	}
	if int64(len(data)) > s.opts.MaxRecordBytes {
		return fmt.Errorf("disk: record of %d bytes exceeds limit", len(data))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("disk: store is closed")
	}
	if _, ok := s.index[key]; ok {
		return nil
	}
	var hdr [headerSize]byte
	copy(hdr[:32], key[:])
	binary.LittleEndian.PutUint32(hdr[32:36], uint32(len(data)))
	crc := crc32.ChecksumIEEE(data)
	binary.LittleEndian.PutUint32(hdr[36:40], crc)
	if _, err := s.file.Write(hdr[:]); err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	if _, err := s.file.Write(data); err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	s.index[key] = loc{seg: s.active.id, off: s.active.bytes + headerSize, len: uint32(len(data)), crc: crc}
	s.active.bytes += headerSize + int64(len(data))
	s.stats.Writes++
	s.m.writes.Add(1)
	if s.active.bytes >= s.opts.SegmentBytes {
		if err := s.roll(); err != nil {
			return err
		}
	}
	s.reclaimLocked()
	s.publish()
	return nil
}

// Get reads the record for key, verifying its CRC. A missing key or a
// corrupt record returns (nil, false) — corruption is counted and the
// record dropped, so the caller recomputes and overwrites it.
func (s *Store) Get(key Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	l, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		s.m.misses.Add(1)
		return nil, false
	}
	data, err := s.readLocked(l)
	if err == nil && crc32.ChecksumIEEE(data) != l.crc {
		err = errors.New("crc mismatch")
	}
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
	return data, true
}

// readLocked fetches one payload. The active segment reads through a
// freshly opened handle (s.file is append-only).
func (s *Store) readLocked(l loc) ([]byte, error) {
	f, err := os.Open(segPath(s.opts.Dir, l.seg))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, l.len)
	if _, err := io.ReadFull(io.NewSectionReader(f, l.off, int64(l.len)), data); err != nil {
		return nil, err
	}
	return data, nil
}

// reclaimLocked deletes the oldest sealed segments until the store
// fits its budget. The active segment is never deleted. Caller holds
// s.mu.
func (s *Store) reclaimLocked() {
	for s.totalLocked() > s.opts.MaxBytes && len(s.sealed) > 0 {
		victim := s.sealed[0]
		s.sealed = s.sealed[1:]
		os.Remove(victim.path)
		for k, l := range s.index {
			if l.seg == victim.id {
				delete(s.index, k)
			}
		}
		s.stats.Reclaimed++
		s.m.reclaimed.Add(1)
	}
}

func (s *Store) totalLocked() int64 {
	t := s.active.bytes
	for _, seg := range s.sealed {
		t += seg.bytes
	}
	return t
}

// publish refreshes the gauges from the exact ledgers. Caller holds
// s.mu.
func (s *Store) publish() {
	s.m.bytes.Set(s.totalLocked())
	s.m.entries.Set(int64(len(s.index)))
	s.m.segments.Set(int64(len(s.sealed) + 1))
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
	st := s.stats
	st.Entries = len(s.index)
	st.Segments = len(s.sealed) + 1
	st.Bytes = s.totalLocked()
	return st
}

// Close syncs and closes the active segment. The store rejects
// further use.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.file != nil {
		s.file.Sync()
		return s.file.Close()
	}
	return nil
}
