// Package seglog is an append-only log of CRC-framed records spread
// over numbered segment files in one directory. It is the one module
// that knows that on-disk layout: the disk result tier and the
// telemetry spool both keep their records as its frames.
//
// A directory holds seg-NNNNNNNN.log files, oldest (lowest number)
// first, and each segment is a run of frames with nothing between
// them:
//
//	u32 LE payload length | u32 LE CRC32-IEEE of payload | payload
//
// Appends go to the newest (active) segment, each as one write of a
// whole frame at the segment's last frame boundary; a write that fails
// is truncated away, so the file never runs ahead of the ledger. When
// the active segment reaches SegmentBytes it is synced and closed and
// the next one starts. Reclaim deletes whole sealed segments, oldest
// first, while the log is over MaxBytes.
//
// The one crash rule: Open reads frame headers only and truncates each
// segment at the first frame that is zero-length, longer than
// MaxFrameBytes, or runs past the end of its file — the torn tail of a
// write a crash cut short. Payload CRCs are checked when a frame is
// read: Read reports a mismatch as ErrCorrupt, and Frames stops at the
// first torn or corrupt frame. Frames are not synced one by one: a
// process crash loses no frame Append returned, and a machine crash at
// most those the OS had not yet written back.
//
// Files without the seg- prefix and .log suffix are not the log's: it
// never reads, counts or deletes them.
package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// HeaderSize is the bytes before each frame's payload: its length and
// its CRC.
const HeaderSize = 8

// HeadBytes is how much of each payload Open hands its visit function:
// enough for a leading content-hash key, so a caller can rebuild a key
// index without reading whole payloads.
const HeadBytes = 32

const (
	prefix = "seg-"
	suffix = ".log"
)

// ErrCorrupt reports a frame whose payload fails its CRC.
var ErrCorrupt = errors.New("seglog: corrupt frame")

var errClosed = errors.New("seglog: log is closed")

// Options configures Open. Every field is required.
type Options struct {
	// Dir is the segment directory; it is created if missing.
	Dir string
	// SegmentBytes is the size at which the active segment rolls.
	SegmentBytes int64
	// MaxBytes is the budget Reclaim holds the whole log to.
	MaxBytes int64
	// MaxFrameBytes bounds one payload: Append rejects longer ones and
	// Open treats a longer length as a torn tail.
	MaxFrameBytes int64
}

// Segment is one segment file.
type Segment struct {
	ID    int64
	Path  string
	Bytes int64
}

// Frame locates one stored payload.
type Frame struct {
	Seg int64  // segment ID
	Off int64  // payload offset within the segment
	Len uint32 // payload length
	CRC uint32 // payload CRC32-IEEE
}

// Stats is a point-in-time account of a Log.
type Stats struct {
	Segments  int    // sealed segments and the active one
	Bytes     int64  // size of every segment, active included
	Active    string // the active segment's path; "" after Close
	Truncated int    // torn tails Open cut
}

// segFile is the active segment's file; tests substitute one whose
// writes fail.
type segFile interface {
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Log is an open segment directory. All methods are safe for
// concurrent use.
type Log struct {
	opts Options

	mu        sync.Mutex
	sealed    []Segment // oldest first
	active    Segment   // zero after Close
	f         segFile   // nil after Close
	bytes     int64     // every segment, active included
	truncated int
}

// Path is the file name of segment id in dir.
func Path(dir string, id int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", prefix, id, suffix))
}

// List returns dir's segments, oldest first, each with its current
// file size.
func List(dir string) ([]Segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	var segs []Segment
	for _, e := range ents {
		num, okP := strings.CutPrefix(e.Name(), prefix)
		num, okS := strings.CutSuffix(num, suffix)
		id, err := strconv.ParseInt(num, 10, 64)
		if !okP || !okS || err != nil || id <= 0 || e.IsDir() {
			continue // not ours; leave it alone
		}
		fi, err := e.Info()
		if err != nil {
			continue // removed since ReadDir
		}
		segs = append(segs, Segment{ID: id, Path: filepath.Join(dir, e.Name()), Bytes: fi.Size()})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].ID < segs[b].ID })
	return segs, nil
}

// Open loads (or creates) the log in opts.Dir. It scans every
// segment's frame headers, truncating torn tails, and calls visit (if
// non-nil) with each intact frame, oldest first, and the first
// HeadBytes of its payload (all of it when shorter). The newest
// segment stays active, so a restart continues it instead of leaving
// a short segment behind per boot.
func Open(opts Options, visit func(f Frame, head []byte)) (*Log, error) {
	if opts.Dir == "" || opts.SegmentBytes <= 0 || opts.MaxBytes <= 0 || opts.MaxFrameBytes <= 0 {
		return nil, fmt.Errorf("seglog: incomplete options %+v", opts)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	segs, err := List(opts.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{opts: opts}
	for _, seg := range segs {
		end, err := scan(seg, opts.MaxFrameBytes, visit)
		if err != nil {
			return nil, err
		}
		if end < seg.Bytes {
			l.truncated++
		}
		seg.Bytes = end
		l.sealed = append(l.sealed, seg)
		l.bytes += end
	}
	n := len(l.sealed)
	if n == 0 {
		if err := l.create(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	l.active = l.sealed[n-1]
	l.sealed = l.sealed[:n-1]
	if l.f, err = os.OpenFile(l.active.Path, os.O_WRONLY, 0); err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	return l, nil
}

// scan walks one segment's frame headers and truncates the file at
// the first torn frame, returning where the intact frames end.
func scan(seg Segment, maxFrame int64, visit func(Frame, []byte)) (int64, error) {
	f, err := os.OpenFile(seg.Path, os.O_RDWR, 0)
	if err != nil {
		return 0, fmt.Errorf("seglog: %w", err)
	}
	defer f.Close()
	var buf [HeaderSize + HeadBytes]byte
	var off int64
	for off+HeaderSize <= seg.Bytes {
		hdr := buf[:min(int64(len(buf)), seg.Bytes-off)]
		if _, err := f.ReadAt(hdr, off); err != nil {
			return 0, fmt.Errorf("seglog: %w", err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr))
		// Append never writes an empty frame, so a zero length is the
		// zero fill of a torn write, not data.
		if n == 0 || n > maxFrame || off+HeaderSize+n > seg.Bytes {
			break
		}
		if visit != nil {
			fr := Frame{Seg: seg.ID, Off: off + HeaderSize, Len: uint32(n), CRC: binary.LittleEndian.Uint32(hdr[4:])}
			visit(fr, hdr[HeaderSize:min(int64(len(hdr)), HeaderSize+n)])
		}
		off += HeaderSize + n
	}
	if off < seg.Bytes {
		if err := f.Truncate(off); err != nil {
			return 0, fmt.Errorf("seglog: truncating torn tail of %s: %w", seg.Path, err)
		}
	}
	return off, nil
}

// create starts segment id as the active segment.
func (l *Log) create(id int64) error {
	path := Path(l.opts.Dir, id)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	l.f = f
	l.active = Segment{ID: id, Path: path}
	return nil
}

// Append stores the concatenation of parts as one frame and reports
// where it landed and whether the active segment then rolled. An error
// means nothing was stored. If starting the next segment fails, the
// frame is still stored, the full segment stays active and the roll is
// tried again after the next append.
func (l *Log) Append(parts ...[]byte) (Frame, bool, error) {
	buf := make([]byte, HeaderSize)
	for _, p := range parts {
		buf = append(buf, p...)
	}
	n := len(buf) - HeaderSize
	if n == 0 || int64(n) > l.opts.MaxFrameBytes {
		return Frame{}, false, fmt.Errorf("seglog: frame of %d bytes outside (0, %d]", n, l.opts.MaxFrameBytes)
	}
	crc := crc32.ChecksumIEEE(buf[HeaderSize:])
	binary.LittleEndian.PutUint32(buf, uint32(n))
	binary.LittleEndian.PutUint32(buf[4:], crc)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return Frame{}, false, errClosed
	}
	off := l.active.Bytes
	if _, err := l.f.WriteAt(buf, off); err != nil {
		// Cut any part of the frame that reached the file. Should that
		// fail too, the next frame overwrites the leftover from the
		// same offset, and Open cuts whatever a crash leaves after it.
		_ = l.f.Truncate(off)
		return Frame{}, false, fmt.Errorf("seglog: %w", err)
	}
	l.active.Bytes += int64(len(buf))
	l.bytes += int64(len(buf))
	fr := Frame{Seg: l.active.ID, Off: off + HeaderSize, Len: uint32(n), CRC: crc}
	if l.active.Bytes < l.opts.SegmentBytes {
		return fr, false, nil
	}
	return fr, l.roll() == nil, nil
}

// Roll seals the active segment and starts the next one. Rolling an
// empty active segment does nothing.
func (l *Log) Roll() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	if l.active.Bytes == 0 {
		return nil
	}
	return l.roll()
}

// roll seals the active segment and starts the next. Caller holds
// l.mu.
func (l *Log) roll() error {
	old, seg := l.f, l.active
	if err := l.create(seg.ID + 1); err != nil {
		return err
	}
	// A failed sync or close loses no more than a crash would, and
	// Open treats it the same way.
	_ = old.Sync()
	_ = old.Close()
	l.sealed = append(l.sealed, seg)
	return nil
}

// Reclaim deletes the oldest sealed segments while the log is over
// MaxBytes and returns them. The active segment is never reclaimed.
func (l *Log) Reclaim() []Segment {
	l.mu.Lock()
	defer l.mu.Unlock()
	var gone []Segment
	for l.bytes > l.opts.MaxBytes && len(l.sealed) > 0 {
		seg := l.sealed[0]
		l.sealed = l.sealed[1:]
		// A segment that will not go is forgotten all the same; the
		// next Open lists it again.
		_ = os.Remove(seg.Path)
		l.bytes -= seg.Bytes
		gone = append(gone, seg)
	}
	return gone
}

// Read returns frame f's payload, or ErrCorrupt if it fails its CRC.
func (l *Log) Read(f Frame) ([]byte, error) {
	file, err := os.Open(Path(l.opts.Dir, f.Seg))
	if err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	defer file.Close()
	p := make([]byte, f.Len)
	if _, err := file.ReadAt(p, f.Off); err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	if crc32.ChecksumIEEE(p) != f.CRC {
		return nil, ErrCorrupt
	}
	return p, nil
}

// Stats returns a point-in-time account of the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{Segments: len(l.sealed), Bytes: l.bytes, Active: l.active.Path, Truncated: l.truncated}
	if l.f != nil {
		st.Segments++
	}
	return st
}

// Close syncs and closes the active segment, which joins the sealed
// ones; an active segment that holds no frame is removed instead.
// Append and Roll fail afterwards; Stats and Reclaim still work.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if l.active.Bytes == 0 {
		_ = os.Remove(l.active.Path) // an empty file holds nothing to lose
	} else {
		l.sealed = append(l.sealed, l.active)
	}
	l.f, l.active = nil, Segment{}
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	return nil
}

// Frames reads the segment file at path and returns its payloads in
// order, up to the first frame that is torn or fails its CRC. It reads
// a live segment safely: a frame still being written ends the list
// like a torn tail.
func Frames(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	var out [][]byte
	for len(data) >= HeaderSize {
		n := uint64(binary.LittleEndian.Uint32(data))
		if n == 0 || HeaderSize+n > uint64(len(data)) {
			break
		}
		p := data[HeaderSize : HeaderSize+n]
		if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(data[4:]) {
			break
		}
		out = append(out, p)
		data = data[HeaderSize+n:]
	}
	return out, nil
}
