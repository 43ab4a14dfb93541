// Package spool is the durable half of the telemetry plane: a
// disk-backed, asynchronously written journal of every wide request
// event the daemon serves, so the evidence for an incident survives
// the process that produced it.
//
// The in-memory telemetry (flight recorder, request ring, SLO
// windows) is deliberately lossy and dies with the process; the spool
// is its durable shadow. Records — obs.WideEvent values, span log
// included — are enqueued on the request hot path into a bounded
// queue with a non-blocking send: the enqueue never stalls a request,
// never allocates, and when the queue is full the record is dropped
// and counted rather than making the caller wait on a disk. A single
// writer goroutine drains the queue in batches into gzip-compressed
// JSONL segment files, one JSON object per line, rotating to a new
// segment when the compressed size crosses the segment threshold.
//
// Each sealed segment gets a sidecar index (seg-NNNNNNNN.idx.json)
// recording its record count, compressed size, and the time and
// request-ID ranges it covers, so an offline reader (cmd/slicequery)
// can skip whole segments without decompressing them. The directory
// as a whole lives under a hard byte budget: after every seal the
// oldest sealed segments are reclaimed until the spool fits. The
// active segment is flushed (gzip sync point) after every drained
// batch, so even a crash mid-segment loses at most the last unflushed
// batch; Open recovers an unsealed segment left by a crash by
// re-reading it and writing the index it never got.
//
// All spool activity is observable: spool.* counters and gauges
// (enqueued, written, dropped, rotations, reclaimed segments/bytes,
// resident bytes, segment count) are mirrored into the Recorder given
// at Open, and Stats returns the same numbers plus the active segment
// pointer for /debug/spool and post-mortem bundles. The spool.*
// instruments are scheduling-dependent (drops, rotation timing) and
// are removed by obs.Scrub like the runtime.* and http.* families.
//
// The nil *Spool is a valid no-op on every method, matching the obs
// package's one-nil-check discipline.
package spool

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"jumpslice/internal/obs"
)

// Defaults for Options fields left zero.
const (
	// DefaultMaxBytes is the default hard disk budget (64 MiB).
	DefaultMaxBytes = 64 << 20
	// DefaultSegmentBytes is the default compressed-size rotation
	// threshold per segment (4 MiB).
	DefaultSegmentBytes = 4 << 20
	// DefaultQueueDepth is the default bounded-queue capacity.
	DefaultQueueDepth = 4096
)

// Options configures Open.
type Options struct {
	// Dir is the spool directory; it is created if missing.
	Dir string
	// MaxBytes is the hard disk budget for the whole directory,
	// active segment included. After every seal, oldest sealed
	// segments are removed until the spool fits. <=0 means
	// DefaultMaxBytes.
	MaxBytes int64
	// SegmentBytes is the compressed byte threshold at which the
	// active segment is sealed and a new one started. <=0 means
	// DefaultSegmentBytes.
	SegmentBytes int64
	// QueueDepth bounds the enqueue queue; a full queue drops (and
	// counts) instead of blocking. <=0 means DefaultQueueDepth.
	QueueDepth int
	// Recorder receives the spool.* instruments (none when nil).
	Recorder *obs.Registry
}

// op is one unit of writer work: a record to persist, or (when sync
// is non-nil) a barrier — the writer flushes everything drained so
// far to the OS and closes sync.
type op struct {
	ev   obs.WideEvent
	sync chan struct{}
}

// Spool is the durable telemetry journal. Construct with Open; all
// methods are safe for concurrent use and valid on the nil Spool.
type Spool struct {
	dir      string
	maxBytes int64
	segBytes int64

	// Instruments: always non-nil (private fallbacks when the
	// Recorder declines), so Stats works without a registry.
	enqueued      *obs.Counter
	written       *obs.Counter
	dropped       *obs.Counter
	rotations     *obs.Counter
	reclaimedSegs *obs.Counter
	reclaimedB    *obs.Counter
	residentGauge *obs.Gauge
	segmentsGauge *obs.Gauge

	// closing guards the queue against sends after Close; Enqueue
	// holds it shared (a few ns) so Close can't close the channel
	// under an in-flight send.
	mu     sync.RWMutex
	closed bool
	queue  chan op
	done   chan struct{} // writer goroutine exited

	// shared is the writer-owned summary Stats reads.
	shared struct {
		sync.Mutex
		sealed      []sealedSegment // oldest first
		activePath  string
		activeBytes int64
		activeRecs  int64
	}

	w writerState // owned by the writer goroutine exclusively
}

// sealedSegment is one finished segment in the reclamation ledger.
type sealedSegment struct {
	path    string
	idxPath string
	bytes   int64
}

// writerState is the writer goroutine's private encoding state.
type writerState struct {
	seq   uint64
	f     *os.File
	cw    *countingWriter
	gz    *gzip.Writer
	idx   Index
	dirty bool // records written since the last gzip flush
}

// countingWriter counts compressed bytes on their way to the file.
type countingWriter struct {
	f *os.File
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.n += int64(n)
	return n, err
}

// counterOr resolves a named counter from r, falling back to a
// private one when there is no registry (a nil one returns nil), so
// the spool's own accounting never depends on a registry.
func counterOr(r *obs.Registry, name string) *obs.Counter {
	if c := r.Counter(name); c != nil {
		return c
	}
	return &obs.Counter{}
}

func gaugeOr(r *obs.Registry, name string) *obs.Gauge {
	if g := r.Gauge(name); g != nil {
		return g
	}
	return &obs.Gauge{}
}

// Open creates or reopens a spool directory and starts the writer.
// An unsealed segment left behind by a crash is recovered: its
// surviving records are counted and it gets the index it never got,
// marked recovered. Numbering continues after the highest existing
// segment.
func Open(opts Options) (*Spool, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("spool: no directory given")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	rec := opts.Recorder
	s := &Spool{
		dir:           opts.Dir,
		maxBytes:      opts.MaxBytes,
		segBytes:      opts.SegmentBytes,
		enqueued:      counterOr(rec, "spool.enqueued"),
		written:       counterOr(rec, "spool.written"),
		dropped:       counterOr(rec, "spool.dropped"),
		rotations:     counterOr(rec, "spool.rotations"),
		reclaimedSegs: counterOr(rec, "spool.reclaimed_segments"),
		reclaimedB:    counterOr(rec, "spool.reclaimed_bytes"),
		residentGauge: gaugeOr(rec, "spool.resident_bytes"),
		segmentsGauge: gaugeOr(rec, "spool.segments"),
		queue:         make(chan op, opts.QueueDepth),
		done:          make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if err := s.openSegment(); err != nil {
		return nil, err
	}
	s.reclaim()
	s.publishGauges()
	go s.writeLoop()
	return s, nil
}

// recover scans the directory, rebuilds the sealed-segment ledger,
// writes a recovery index for any unsealed segment a previous process
// left behind, and positions the sequence counter past everything.
func (s *Spool) recover() error {
	segs, err := Segments(s.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.Seq >= s.w.seq {
			s.w.seq = seg.Seq + 1
		}
		if seg.Index == nil {
			// A crash left this segment unsealed: count what survived
			// and give it the index it never got.
			idx := Index{Segment: filepath.Base(seg.Path), Recovered: true}
			first := true
			_ = ReadSegment(seg.Path, func(ev *obs.WideEvent) error {
				idx.note(ev, first)
				first = false
				return nil
			})
			fi, err := os.Stat(seg.Path)
			if err != nil {
				return fmt.Errorf("spool: recovering %s: %w", seg.Path, err)
			}
			idx.Bytes = fi.Size()
			idx.SealedNS = time.Now().UnixNano()
			idxPath := indexPath(seg.Path)
			if err := writeIndex(idxPath, &idx); err != nil {
				return err
			}
			seg.Index = &idx
			seg.IndexPath = idxPath
		}
		s.shared.sealed = append(s.shared.sealed, sealedSegment{
			path:    seg.Path,
			idxPath: seg.IndexPath,
			bytes:   seg.Index.Bytes,
		})
	}
	return nil
}

// Enqueue offers one record to the spool without ever blocking: a
// full queue (the disk fell behind) drops the record and counts the
// drop. Reports whether the record was accepted. No-op (false) on a
// nil or closed spool.
func (s *Spool) Enqueue(ev obs.WideEvent) bool {
	if s == nil {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	s.enqueued.Add(1)
	select {
	case s.queue <- op{ev: ev}:
		return true
	default:
		s.dropped.Add(1)
		return false
	}
}

// Sync blocks until every record enqueued before the call is written
// and flushed to the OS — the test and shutdown barrier. No-op on nil.
func (s *Spool) Sync() {
	if s == nil {
		return
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return
	}
	ch := make(chan struct{})
	s.queue <- op{sync: ch}
	s.mu.RUnlock()
	<-ch
}

// Close drains the queue, seals the active segment, and stops the
// writer. The spool rejects records afterwards. No-op on nil.
func (s *Spool) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	<-s.done
	return nil
}

// writeLoop is the writer goroutine: drain a batch, flush, rotate
// when the active segment crosses the threshold.
func (s *Spool) writeLoop() {
	defer close(s.done)
	for o := range s.queue {
		s.handle(o)
		// Drain whatever queued up behind it without blocking, then
		// flush once: one gzip sync point per batch, not per record.
	drain:
		for {
			select {
			case o2, ok := <-s.queue:
				if !ok {
					s.finish()
					return
				}
				s.handle(o2)
			default:
				break drain
			}
		}
		s.flush()
		if s.w.cw.n >= s.segBytes {
			s.seal()
			if err := s.openSegment(); err != nil {
				// The disk is gone; further records will be written
				// nowhere, but the daemon must keep serving. Count
				// them as drops.
				s.w.f = nil
			}
			s.reclaim()
			s.publishGauges()
		}
	}
	s.finish()
}

// handle applies one op in the writer goroutine.
func (s *Spool) handle(o op) {
	if o.sync != nil {
		s.flush()
		close(o.sync)
		return
	}
	if s.w.f == nil {
		s.dropped.Add(1)
		return
	}
	data, err := json.Marshal(&o.ev)
	if err != nil {
		s.dropped.Add(1)
		return
	}
	if _, err := s.w.gz.Write(data); err != nil {
		s.dropped.Add(1)
		return
	}
	s.w.gz.Write([]byte{'\n'})
	s.w.idx.note(&o.ev, s.w.idx.Records == 0)
	s.w.dirty = true
	s.written.Add(1)
}

// flush pushes buffered compressed bytes to the OS (a gzip sync
// point), making everything written so far readable by a concurrent
// or post-mortem reader.
func (s *Spool) flush() {
	if s.w.f == nil || !s.w.dirty {
		return
	}
	s.w.gz.Flush()
	s.w.dirty = false
	s.shared.Lock()
	s.shared.activeBytes = s.w.cw.n
	s.shared.activeRecs = s.w.idx.Records
	s.shared.Unlock()
	s.publishGauges()
}

// openSegment starts a fresh active segment.
func (s *Spool) openSegment() error {
	name := fmt.Sprintf("seg-%08d%s", s.w.seq, SegmentSuffix)
	path := filepath.Join(s.dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	s.w.seq++
	s.w.f = f
	s.w.cw = &countingWriter{f: f}
	s.w.gz = gzip.NewWriter(s.w.cw)
	s.w.idx = Index{Segment: name}
	s.w.dirty = false
	s.shared.Lock()
	s.shared.activePath = path
	s.shared.activeBytes = 0
	s.shared.activeRecs = 0
	s.shared.Unlock()
	return nil
}

// seal finishes the active segment: close the gzip stream, sync the
// file, write the sidecar index (atomically, via rename), and move
// the segment into the sealed ledger. An active segment that never
// received a record is deleted instead — an empty segment earns no
// index and no disk residency.
func (s *Spool) seal() {
	if s.w.f == nil {
		return
	}
	if s.w.idx.Records == 0 {
		path := filepath.Join(s.dir, s.w.idx.Segment)
		s.w.gz.Close()
		s.w.f.Close()
		os.Remove(path)
		s.shared.Lock()
		s.shared.activePath = ""
		s.shared.activeBytes = 0
		s.shared.activeRecs = 0
		s.shared.Unlock()
		s.w.f = nil
		return
	}
	s.w.gz.Close()
	s.w.f.Sync()
	s.w.f.Close()
	path := filepath.Join(s.dir, s.w.idx.Segment)
	s.w.idx.Bytes = s.w.cw.n
	s.w.idx.SealedNS = time.Now().UnixNano()
	idxPath := indexPath(path)
	if err := writeIndex(idxPath, &s.w.idx); err != nil {
		// The segment itself is intact; a missing index only costs a
		// recovery pass on the next Open.
		idxPath = ""
	}
	s.shared.Lock()
	s.shared.sealed = append(s.shared.sealed, sealedSegment{path: path, idxPath: idxPath, bytes: s.w.cw.n})
	s.shared.activePath = ""
	s.shared.activeBytes = 0
	s.shared.activeRecs = 0
	s.shared.Unlock()
	s.w.f = nil
	s.rotations.Add(1)
}

// finish seals on shutdown, even a short segment, so Close always
// leaves a fully indexed directory.
func (s *Spool) finish() {
	s.flush()
	s.seal()
	s.reclaim()
	s.publishGauges()
}

// reclaim removes oldest sealed segments until the directory fits the
// byte budget. The active segment is never reclaimed.
func (s *Spool) reclaim() {
	s.shared.Lock()
	defer s.shared.Unlock()
	total := s.shared.activeBytes
	for _, seg := range s.shared.sealed {
		total += seg.bytes
	}
	for total > s.maxBytes && len(s.shared.sealed) > 0 {
		oldest := s.shared.sealed[0]
		s.shared.sealed = s.shared.sealed[1:]
		os.Remove(oldest.path)
		if oldest.idxPath != "" {
			os.Remove(oldest.idxPath)
		}
		total -= oldest.bytes
		s.reclaimedSegs.Add(1)
		s.reclaimedB.Add(oldest.bytes)
	}
}

// publishGauges refreshes the level instruments from the ledger.
func (s *Spool) publishGauges() {
	s.shared.Lock()
	total := s.shared.activeBytes
	n := len(s.shared.sealed)
	if s.shared.activePath != "" {
		n++
	}
	for _, seg := range s.shared.sealed {
		total += seg.bytes
	}
	s.shared.Unlock()
	s.residentGauge.Set(total)
	s.segmentsGauge.Set(int64(n))
}

// Stats is a point-in-time view of the spool for /debug/spool,
// post-mortem bundles, and tests.
type Stats struct {
	Dir           string `json:"dir"`
	Segments      int    `json:"segments"`
	ResidentBytes int64  `json:"resident_bytes"`
	MaxBytes      int64  `json:"max_bytes"`
	// ActiveSegment is the path of the segment currently being
	// written ("" between rotation and reopen, or after Close).
	ActiveSegment string `json:"active_segment,omitempty"`
	ActiveRecords int64  `json:"active_records"`
	Enqueued      int64  `json:"enqueued"`
	Written       int64  `json:"written"`
	Dropped       int64  `json:"dropped"`
	Rotations     int64  `json:"rotations"`
	ReclaimedSegs int64  `json:"reclaimed_segments"`
	ReclaimedB    int64  `json:"reclaimed_bytes"`
	QueueLen      int    `json:"queue_len"`
	QueueCap      int    `json:"queue_cap"`
}

// Stats snapshots the spool (zero value on nil).
func (s *Spool) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	st := Stats{
		Dir:           s.dir,
		MaxBytes:      s.maxBytes,
		Enqueued:      s.enqueued.Value(),
		Written:       s.written.Value(),
		Dropped:       s.dropped.Value(),
		Rotations:     s.rotations.Value(),
		ReclaimedSegs: s.reclaimedSegs.Value(),
		ReclaimedB:    s.reclaimedB.Value(),
		QueueLen:      len(s.queue),
		QueueCap:      cap(s.queue),
	}
	s.shared.Lock()
	st.ActiveSegment = s.shared.activePath
	st.ActiveRecords = s.shared.activeRecs
	st.ResidentBytes = s.shared.activeBytes
	st.Segments = len(s.shared.sealed)
	if s.shared.activePath != "" {
		st.Segments++
	}
	for _, seg := range s.shared.sealed {
		st.ResidentBytes += seg.bytes
	}
	s.shared.Unlock()
	return st
}
