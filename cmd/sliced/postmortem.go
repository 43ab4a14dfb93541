package main

// Post-mortem bundles: when something goes wrong — a recovered panic,
// an operator's SIGUSR1, or a fatal exit — the daemon snapshots every
// in-memory telemetry surface into one self-contained directory under
// -postmortem-dir. The in-memory planes (wide-event ring, SLO
// windows) are deliberately lossy and die with the process; the
// bundle is the moment they get written down, so the evidence for an
// incident can be attached to it instead of evaporating on restart.
//
// A bundle directory contains:
//
//	meta.json       why and when the bundle was written, plus the
//	                process's serving totals; written LAST, so its
//	                presence marks the bundle complete.
//	build.json      the binary's provenance (/debug/build).
//	requests.jsonl  the wide-event ring: the last N requests, one
//	                JSON wide event per line (readable by slicequery
//	                -bundle).
//	slo.json        the sliding-window SLO snapshot (/debug/slo).
//	goroutines.txt  a full goroutine dump.
//
// Bundles triggered by recovered panics are rate-limited to one per
// process: the first panic writes the evidence, a panic storm must
// not turn into a disk storm. SIGUSR1 always writes a fresh bundle.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"jumpslice/internal/obs"
)

// postmortemMeta is the bundle's meta.json payload.
type postmortemMeta struct {
	Reason    string `json:"reason"` // "sigusr1", "panic", "fatal_exit"
	WrittenNS int64  `json:"written_at_ns"`
	Written   string `json:"written_at"`
	PID       int    `json:"pid"`
	// Serving totals at bundle time.
	RequestsServed int64 `json:"requests_served"`
	RequestsShed   int64 `json:"requests_shed"`
	WideEvents     int   `json:"wide_events"`
}

// writePostmortem writes one bundle and returns its directory. An
// empty -postmortem-dir disables bundles; callers get an error naming
// that, not a surprise directory.
func (s *server) writePostmortem(reason string) (string, error) {
	if s.cfg.PostmortemDir == "" {
		return "", fmt.Errorf("post-mortem bundles disabled (-postmortem-dir unset)")
	}
	now := time.Now()
	dir := filepath.Join(s.cfg.PostmortemDir, fmt.Sprintf("bundle-%d-%s", now.UnixNano(), reason))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("postmortem: %w", err)
	}

	events := s.requests.Events()
	if err := writeBundleFile(dir, "requests.jsonl", func(f *os.File) error {
		return obs.WriteJSONL(f, events)
	}); err != nil {
		return dir, err
	}
	if err := writeBundleJSON(dir, "slo.json", s.slo.Snapshot()); err != nil {
		return dir, err
	}
	if err := writeBundleJSON(dir, "build.json", s.build); err != nil {
		return dir, err
	}
	if err := writeBundleFile(dir, "goroutines.txt", func(f *os.File) error {
		_, err := f.Write(allGoroutines())
		return err
	}); err != nil {
		return dir, err
	}
	// meta.json last: its presence marks the bundle complete, so a
	// consumer polling the directory never reads a half-written one.
	meta := postmortemMeta{
		Reason:         reason,
		WrittenNS:      now.UnixNano(),
		Written:        now.UTC().Format(time.RFC3339Nano),
		PID:            os.Getpid(),
		RequestsServed: s.reqID.Load(),
		RequestsShed:   s.shed.Load(),
		WideEvents:     len(events),
	}
	if err := writeBundleJSON(dir, "meta.json", meta); err != nil {
		return dir, err
	}
	return dir, nil
}

// postmortemOnPanic writes the once-per-process panic bundle.
func (s *server) postmortemOnPanic() {
	if s.cfg.PostmortemDir == "" || !s.pmPanic.CompareAndSwap(false, true) {
		return
	}
	dir, err := s.writePostmortem("panic")
	if err != nil {
		s.logger.Printf("postmortem: %v", err)
		return
	}
	s.logger.Printf("postmortem bundle (panic) written to %s", dir)
}

// postmortemOnFatal snapshots state on the way out of a failing
// serveOn and passes the original error through.
func (s *server) postmortemOnFatal(err error) error {
	if err == nil || s.cfg.PostmortemDir == "" {
		return err
	}
	dir, werr := s.writePostmortem("fatal_exit")
	if werr != nil {
		s.logger.Printf("postmortem: %v", werr)
		return err
	}
	s.logger.Printf("postmortem bundle (fatal_exit) written to %s", dir)
	return err
}

// writeBundleFile writes one bundle artifact under a temporary name
// and renames it into place, so no artifact is visible before it is
// complete: meta.json's presence then means the bundle is. A failed
// write leaves nothing behind.
func writeBundleFile(dir, name string, write func(*os.File) error) error {
	path := filepath.Join(dir, name)
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return fmt.Errorf("postmortem: %w", err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("postmortem: %s: %w", name, err)
	}
	return nil
}

// writeBundleJSON writes one artifact as indented JSON.
func writeBundleJSON(dir, name string, v any) error {
	return writeBundleFile(dir, name, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// allGoroutines captures a full goroutine dump, growing the buffer
// until the dump fits.
func allGoroutines() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}
