package spool

// Reading spool directories: segment discovery, sidecar indexes, and
// record iteration — the offline half, for cmd/slicequery and Open's
// recovery pass.

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"jumpslice/internal/obs"
	"jumpslice/internal/seglog"
)

// IndexSuffix is the suffix a segment's sidecar index adds to the
// segment's file name (seg-NNNNNNNN.log.idx.json).
const IndexSuffix = ".idx.json"

// Index is a sealed segment's sidecar: enough metadata to decide
// whether the segment can possibly match a time-range or request-ID
// query without decompressing it.
type Index struct {
	// Segment is the data file's base name.
	Segment string `json:"segment"`
	// Records is the number of records in the segment; Bytes its
	// compressed on-disk size at seal time.
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	// MinTSNS/MaxTSNS bound the records' arrival times (ts_ns);
	// MinReq/MaxReq bound their request IDs.
	MinTSNS int64  `json:"min_ts_ns"`
	MaxTSNS int64  `json:"max_ts_ns"`
	MinReq  uint64 `json:"min_req"`
	MaxReq  uint64 `json:"max_req"`
	// SealedNS is when the segment was sealed.
	SealedNS int64 `json:"sealed_at_ns"`
	// Recovered marks an index rebuilt by Open after a crash left the
	// segment unsealed; its Records count only what survived.
	Recovered bool `json:"recovered,omitempty"`
}

// note folds one record into the index bounds.
func (x *Index) note(ev *obs.WideEvent) {
	if x.Records == 0 {
		x.MinTSNS, x.MaxTSNS, x.MinReq, x.MaxReq = ev.TimeNS, ev.TimeNS, ev.Req, ev.Req
	}
	x.MinTSNS, x.MaxTSNS = min(x.MinTSNS, ev.TimeNS), max(x.MaxTSNS, ev.TimeNS)
	x.MinReq, x.MaxReq = min(x.MinReq, ev.Req), max(x.MaxReq, ev.Req)
	x.Records++
}

// indexPath maps a segment data path to its sidecar path.
func indexPath(segPath string) string {
	return segPath + IndexSuffix
}

// readIndex parses a sidecar, or returns nil when there is none (the
// segment is unsealed) or it does not parse.
func readIndex(path string) *Index {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	idx := &Index{}
	if json.Unmarshal(data, idx) != nil {
		return nil
	}
	return idx
}

// writeIndex writes the sidecar atomically (temp file + rename), so a
// reader never sees a half-written index.
func writeIndex(path string, x *Index) error {
	data, err := json.MarshalIndent(x, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("spool: %w", err)
	}
	return nil
}

// SegmentInfo describes one segment found in a spool directory.
type SegmentInfo struct {
	// Path is the data file; Seq its parsed sequence number.
	Path string
	Seq  uint64
	// Index is the parsed sidecar, nil when the segment is unsealed
	// (the active segment, or one left behind by a crash).
	Index     *Index
	IndexPath string
}

// Segments lists a spool directory's segments, oldest (lowest
// sequence) first, pairing each with its sidecar index when present.
func Segments(dir string) ([]SegmentInfo, error) {
	segs, err := seglog.List(dir)
	if err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	out := make([]SegmentInfo, 0, len(segs))
	for _, seg := range segs {
		info := SegmentInfo{Path: seg.Path, Seq: uint64(seg.ID), Index: readIndex(indexPath(seg.Path))}
		if info.Index != nil {
			info.IndexPath = indexPath(seg.Path)
		}
		out = append(out, info)
	}
	return out, nil
}

// ReadSegment streams a segment's records through fn. A torn or
// corrupt frame — a crash mid-write, or reading the active segment
// while the writer is alive — is not an error: iteration stops
// cleanly at the last intact record. A non-nil error from fn aborts
// and is returned; ErrStop ends iteration early without error.
func ReadSegment(path string, fn func(ev *obs.WideEvent) error) error {
	err := readSegment(path, &obs.Filter{}, func(ev *obs.WideEvent, _ []byte) error { return fn(ev) })
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}

// ErrStop is fn's way to end a ReadSegment or Scan iteration early
// without reporting an error.
var ErrStop = errors.New("spool: stop")

// readSegment streams a segment's records matching f through fn with
// their raw stored lines. fn's own error is returned as it is.
func readSegment(path string, f *obs.Filter, fn func(ev *obs.WideEvent, raw []byte) error) error {
	frames, err := seglog.Frames(path)
	if err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	var fnErr error
	err = obs.ReadJSONL(flate.NewReader(bytes.NewReader(bytes.Join(frames, nil))), f, func(ev *obs.WideEvent, raw []byte) error {
		fnErr = fn(ev, raw)
		return fnErr
	})
	switch {
	// The stream is never closed, so where the intact frames end the
	// decompressor reports an unexpected EOF: that is the segment's end.
	case err == nil, fnErr != nil, errors.Is(err, io.ErrUnexpectedEOF):
		return fnErr
	}
	return fmt.Errorf("spool: %s: %w", path, err)
}

// matchIndex reports whether a sealed segment can possibly hold a
// record matching f; unsealed segments always can.
func matchIndex(f *obs.Filter, x *Index) bool {
	if x == nil {
		return true
	}
	if f.SinceNS != 0 && x.MaxTSNS < f.SinceNS {
		return false
	}
	if f.UntilNS != 0 && x.MinTSNS > f.UntilNS {
		return false
	}
	if f.Req != 0 && (f.Req < x.MinReq || f.Req > x.MaxReq) {
		return false
	}
	return true
}

// Scan streams every matching record of a spool directory through fn
// in segment order (oldest segment first, record order within), using
// sidecar indexes to skip segments that cannot match. fn receives the
// record and its raw stored JSON line (valid only during the call);
// returning ErrStop ends the whole scan early without error.
func Scan(dir string, f obs.Filter, fn func(ev *obs.WideEvent, raw []byte) error) error {
	segs, err := Segments(dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if !matchIndex(&f, seg.Index) {
			continue
		}
		err := readSegment(seg.Path, &f, fn)
		if errors.Is(err, ErrStop) {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}
