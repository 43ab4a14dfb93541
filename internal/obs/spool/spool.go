// Package spool is the durable half of the telemetry plane: a
// disk-backed, asynchronously written journal of every wide request
// event the daemon serves, so the evidence for an incident survives
// the process that produced it.
//
// Records — obs.WideEvent values, span log included — are enqueued on
// the request hot path into a bounded queue with a non-blocking send:
// the enqueue never stalls a request, never allocates, and when the
// queue is full the record is dropped and counted rather than making
// the caller wait on a disk.
//
// A single writer goroutine stores the records as frames of a seglog
// directory, which owns the files, rotation, the byte budget and the
// crash rule. Each segment holds one deflate stream of JSON lines: the
// writer compresses a record's line, flushes the stream, and appends
// the flushed bytes as one frame. So every record reaches the OS as it
// is written, a torn tail loses at most one record, and compression
// still spans records. A deflate stream cannot be resumed, so every
// Open starts a fresh segment.
//
// Each sealed segment gets a sidecar index (seg-NNNNNNNN.log.idx.json)
// recording its record count, size, and the time and request-ID
// ranges it covers, so an offline reader (cmd/slicequery) can skip
// whole segments without decompressing them; reclaiming a segment
// removes its sidecar. Open gives a segment a crash left unsealed the
// index it never got.
//
// The spool.* counters and gauges mirror the spool's activity into the
// Recorder given at Open, and Stats returns the same numbers for
// /debug/spool and post-mortem bundles. They are scheduling-dependent
// and are removed by obs.Scrub like the runtime.* and http.* families.
//
// The nil *Spool is a valid no-op on every method, matching the obs
// package's one-nil-check discipline.
package spool

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"jumpslice/internal/obs"
	"jumpslice/internal/seglog"
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

// maxLine bounds one stored record: its JSON line and newline, as a
// reader scans them, and so also its compressed frame.
const maxLine = 1 << 20

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
// is non-nil) a barrier — the writer closes sync once everything
// before it is written.
type op struct {
	ev   obs.WideEvent
	sync chan struct{}
}

// Spool is the durable telemetry journal. Construct with Open; all
// methods are safe for concurrent use and valid on the nil Spool.
type Spool struct {
	dir      string
	maxBytes int64
	log      *seglog.Log

	// Instruments: always non-nil, so Stats works without a Recorder.
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
	mu       sync.RWMutex
	closed   bool
	queue    chan op
	done     chan struct{} // writer goroutine exited
	closeErr error         // set by the writer before done closes

	activeRecs atomic.Int64 // records in the active segment, for Stats

	w writerState // owned by the writer goroutine exclusively
}

// writerState is the writer goroutine's private encoding state.
type writerState struct {
	idx Index // active segment's index so far
	buf bytes.Buffer
	zw  *flate.Writer // the active segment's stream, into buf
}

// Open creates or reopens a spool directory and starts the writer.
// A segment left unsealed by a crash is recovered: its surviving
// records are counted and it gets the index it never got, marked
// recovered. Records then go to a fresh segment.
func Open(opts Options) (*Spool, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	log, err := seglog.Open(seglog.Options{
		Dir:           opts.Dir,
		SegmentBytes:  opts.SegmentBytes,
		MaxBytes:      opts.MaxBytes,
		MaxFrameBytes: maxLine,
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	rec := opts.Recorder
	if rec == nil {
		// A private registry keeps the spool's own accounting, which
		// Stats reports, without a Recorder.
		rec = obs.NewRegistry()
	}
	s := &Spool{
		dir:           opts.Dir,
		maxBytes:      opts.MaxBytes,
		log:           log,
		enqueued:      rec.Counter("spool.enqueued"),
		written:       rec.Counter("spool.written"),
		dropped:       rec.Counter("spool.dropped"),
		rotations:     rec.Counter("spool.rotations"),
		reclaimedSegs: rec.Counter("spool.reclaimed_segments"),
		reclaimedB:    rec.Counter("spool.reclaimed_bytes"),
		residentGauge: rec.Gauge("spool.resident_bytes"),
		segmentsGauge: rec.Gauge("spool.segments"),
		queue:         make(chan op, opts.QueueDepth),
		done:          make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		log.Close()
		return nil, err
	}
	if err := log.Roll(); err != nil {
		log.Close()
		return nil, fmt.Errorf("spool: %w", err)
	}
	s.w.zw, _ = flate.NewWriter(&s.w.buf, flate.DefaultCompression) // only an invalid level errors
	s.startSegment()
	s.reclaim()
	s.publishGauges()
	go s.writeLoop()
	return s, nil
}

// recover gives every segment a previous process left unsealed — one
// with records but no sidecar — the index it never got.
func (s *Spool) recover() error {
	segs, err := seglog.List(s.dir)
	if err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	for _, seg := range segs {
		if seg.Bytes == 0 || readIndex(indexPath(seg.Path)) != nil {
			continue
		}
		idx := Index{Segment: filepath.Base(seg.Path), Recovered: true}
		_ = ReadSegment(seg.Path, func(ev *obs.WideEvent) error {
			idx.note(ev)
			return nil
		})
		idx.Bytes = seg.Bytes
		idx.SealedNS = time.Now().UnixNano()
		if err := writeIndex(indexPath(seg.Path), &idx); err != nil {
			return err
		}
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
// to the OS — the test and shutdown barrier. No-op on nil.
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
	return s.closeErr
}

// writeLoop is the writer goroutine: write each record as it comes,
// answer barriers, and seal the last segment when the queue closes.
func (s *Spool) writeLoop() {
	defer close(s.done)
	for o := range s.queue {
		if o.sync != nil {
			close(o.sync)
			continue
		}
		s.write(&o.ev)
	}
	s.closeErr = s.finish()
}

// write stores one record as one frame: its JSON line, compressed
// into the segment's stream and flushed.
func (s *Spool) write(ev *obs.WideEvent) {
	line, err := json.Marshal(ev)
	if err != nil || len(line) >= maxLine {
		s.dropped.Add(1) // too long a line would make the segment unreadable
		return
	}
	// Writes into a bytes.Buffer cannot fail.
	s.w.buf.Reset()
	s.w.zw.Write(line)
	s.w.zw.Write([]byte{'\n'})
	s.w.zw.Flush()
	f, rolled, err := s.log.Append(s.w.buf.Bytes())
	if err != nil {
		// The record never reached the file, so the next one must not
		// refer back to it. A fresh stream may follow a flushed one in
		// the same segment: a flush ends on a block boundary.
		s.w.zw.Reset(&s.w.buf)
		s.dropped.Add(1)
		return
	}
	s.w.idx.note(ev)
	s.w.idx.Bytes = f.Off + int64(f.Len)
	s.activeRecs.Store(s.w.idx.Records)
	s.written.Add(1)
	if rolled {
		s.seal()
		s.startSegment()
		s.reclaim()
	}
	s.publishGauges()
}

// startSegment begins the index and the stream of the log's active
// segment.
func (s *Spool) startSegment() {
	s.w.idx = Index{Segment: filepath.Base(s.log.Stats().Active)}
	s.w.zw.Reset(&s.w.buf)
	s.activeRecs.Store(0)
}

// seal writes the sidecar index of the segment just finished
// (atomically, via rename).
func (s *Spool) seal() {
	s.w.idx.SealedNS = time.Now().UnixNano()
	// The segment itself is intact; a missing index only costs a
	// recovery pass on the next Open.
	_ = writeIndex(indexPath(filepath.Join(s.dir, s.w.idx.Segment)), &s.w.idx)
	s.rotations.Add(1)
}

// finish closes the log on shutdown and seals its last segment, so
// Close always leaves a fully indexed directory. A segment that never
// received a record earns no index and no disk residency.
func (s *Spool) finish() error {
	err := s.log.Close()
	if s.w.idx.Records > 0 {
		s.seal()
	}
	s.activeRecs.Store(0)
	s.reclaim()
	s.publishGauges()
	return err
}

// reclaim removes oldest sealed segments, with their sidecars, until
// the directory fits the byte budget. The active segment is never
// reclaimed.
func (s *Spool) reclaim() {
	for _, seg := range s.log.Reclaim() {
		os.Remove(indexPath(seg.Path)) // absent for a segment never sealed
		s.reclaimedSegs.Add(1)
		s.reclaimedB.Add(seg.Bytes)
	}
}

// publishGauges refreshes the level instruments from the log.
func (s *Spool) publishGauges() {
	st := s.log.Stats()
	s.residentGauge.Set(st.Bytes)
	s.segmentsGauge.Set(int64(st.Segments))
}

// Stats is a point-in-time view of the spool for /debug/spool,
// post-mortem bundles, and tests.
type Stats struct {
	Dir           string `json:"dir"`
	Segments      int    `json:"segments"`
	ResidentBytes int64  `json:"resident_bytes"`
	MaxBytes      int64  `json:"max_bytes"`
	// ActiveSegment is the path of the segment currently being
	// written ("" after Close).
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
	ls := s.log.Stats()
	st.ActiveSegment = ls.Active
	st.ActiveRecords = s.activeRecs.Load()
	st.ResidentBytes = ls.Bytes
	st.Segments = ls.Segments
	return st
}
