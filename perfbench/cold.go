package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

// cold-pipeline: batch and impact-analysis users of the library, and
// the daemon's cache-miss path. Every operation is a never-seen
// program, so the analysis modules do nearly all the work and the
// cache, incremental reuse, provenance and HTTP do none. It runs one
// client: a batch user slices its programs one after another.
const (
	coldOpsPerSecond = 200
	coldProcs        = 1   // GOMAXPROCS of the timed and traced operations
	coldStmts        = 200 // progen budget; about 290 parsed statements
	setupRounds      = 9   // set-up is measured this many times; the median is reported
)

// pipelineRun is one cold-pipeline operation's output.
type pipelineRun struct {
	prog    *lang.Program
	a       *core.Analysis
	slices  []*core.Slice
	texts   []string
	analyze time.Duration // traced runs only
}

// pipeline parses src, analyzes it, slices every criterion (every
// write criterion when crits is nil) with SliceAll and formats every
// slice. A non-nil sp times each layer.
func pipeline(src string, crits []core.Criterion, sp *spans) (*pipelineRun, error) {
	r := &pipelineRun{}
	var err error
	sp.time("lang.parse_us", func() { r.prog, err = lang.Parse(src) })
	if err != nil {
		return nil, err
	}
	sp.time("core.analyze_us", func() { r.a, err = core.Analyze(r.prog) })
	if err != nil {
		return nil, err
	}
	if sp != nil {
		r.analyze = sp.last
	}
	if crits == nil {
		for _, wc := range progen.WriteCriteria(r.prog) {
			crits = append(crits, core.Criterion{Var: wc.Var, Line: wc.Line})
		}
	}
	sp.time("core.sliceall_us", func() { r.slices, err = r.a.SliceAll(crits) })
	if err != nil {
		return nil, err
	}
	r.texts = make([]string, len(r.slices))
	for i, s := range r.slices {
		sp.time("core.format_us", func() { r.texts[i] = s.Format() })
	}
	return r, nil
}

func digest(texts []string) [32]byte {
	h := sha256.New()
	for _, t := range texts {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// coldProgram generates cold-pipeline program i of a stream. The
// programs are made when needed rather than kept for the whole run, so
// the pass's peak memory is the pipeline's and not the input corpus's.
func coldProgram(cfg *config, stream, i int) (program, error) {
	return genProgram(streamSeed(cfg.seed, stream, i), coldStmts, i%2 == 0)
}

func runCold(cfg *config, sup *supervisor) (*outcome, error) {
	n := cfg.ops(coldOpsPerSecond)
	dir, err := sup.tempDir()
	if err != nil {
		return nil, err
	}
	out := &outcome{oracle: &oracle{}}
	// Set-up is what a library user pays before the first result: a
	// fresh process starts, parses, analyzes, slices and formats one
	// program, and exits. Every probe runs the same program, fixed like
	// the daemon corpora, so set-up does not vary with the seed.
	warm, err := genProgram(streamSeed(corpusSeed, streamWarm, 0), coldStmts, true)
	if err != nil {
		return nil, err
	}
	file := filepath.Join(dir, "probe.mc")
	if err := os.WriteFile(file, []byte(warm.src), 0o644); err != nil {
		return nil, err
	}
	for r := 0; r < setupRounds; r++ {
		d, err := probeSetup(cfg.self, file)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setup = append(out.setup, d)
	}

	// Timed pass. Each chunk's programs are generated untimed before
	// it; attempts run into cur*, and runPass keeps the counted one.
	// The peak resident size is taken per chunk, from a reset after
	// generation, so it is the pipeline's own; the median over the
	// chunks is reported, as the peak of a single chunk swings with
	// when the collector happens to run.
	//
	// The operations run with GOMAXPROCS coldProcs: the client is one
	// batch user on one core. With a second P the collector's workers
	// run on the second vCPU, which the host shares with other tenants,
	// and the latency tail followed its availability rather than the
	// library's work (p99 swung up to 2.8x between passes over the same
	// programs).
	var chunk []program
	var procs int
	digests, curDigests := make([][32]byte, n), make([][32]byte, n)
	errs, curErrs := make([]error, n), make([]error, n)
	out.lat = make([]time.Duration, n)
	curLat := make([]time.Duration, n)
	peaks := map[int]int64{} // by chunk start
	var curPeak int64
	p, err := runPass(n, 1, chunkHooks{
		before: func(lo, hi int) (err error) {
			chunk, err = genPrograms(hi-lo, func(k int) (program, error) { return coldProgram(cfg, streamOps, lo+k) })
			if err != nil {
				return err
			}
			debug.FreeOSMemory()
			procs = runtime.GOMAXPROCS(coldProcs)
			return resetPeakRSS()
		},
		run: func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				s := time.Now()
				var r *pipelineRun
				r, curErrs[i] = pipeline(chunk[i-lo].src, nil, nil)
				curLat[i] = time.Since(s)
				if curErrs[i] == nil {
					curDigests[i] = digest(r.texts)
				}
			}
			return nil
		},
		after: func(lo, hi int) (err error) {
			runtime.GOMAXPROCS(procs)
			chunk = nil
			curPeak, err = procPeakRSSKB(os.Getpid())
			return err
		},
		keep: func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out.lat[i], errs[i], digests[i] = curLat[i], curErrs[i], curDigests[i]
			}
			peaks[lo] = curPeak
		},
		cpu: func() (time.Duration, error) { return selfCPU(), nil },
	})
	if err != nil {
		return nil, err
	}
	out.wall, out.cpu = p.wall, p.cpu
	kbs := make([]int64, 0, len(peaks))
	for _, kb := range peaks {
		kbs = append(kbs, kb)
	}
	slices.Sort(kbs)
	out.peakRSSKB = kbs[(len(kbs)-1)/2]
	for i, err := range errs {
		out.attempted++
		if err != nil {
			out.failed++
			out.oracle.failf("operation %d: %v", i, err)
		}
	}

	if cfg.trace {
		if err := traceCold(cfg, sup, out); err != nil {
			return nil, err
		}
	}

	// Oracle: the paper's figures and the negative control through the
	// library, then every timed operation re-run, compared byte for
	// byte, and each of its slices validated by the interpreter.
	out.oracle.negativeControl()
	for _, f := range paper.All() {
		r, err := pipeline(f.Source, []core.Criterion{{Var: f.Criterion.Var, Line: f.Criterion.Line}}, nil)
		if err != nil {
			out.oracle.failf("%s: %v", f.Name, err)
			continue
		}
		out.oracle.checkFigure(f, r.slices[0].Lines(), "library")
	}
	err = parallel(n, func(i int) error {
		p, err := coldProgram(cfg, streamOps, i)
		if err != nil {
			return err
		}
		r, err := pipeline(p.src, nil, nil)
		if err != nil {
			return nil // already counted as a failed operation
		}
		if digest(r.texts) != digests[i] {
			out.oracle.failf("operation %d: output differs between runs", i)
		}
		for _, s := range r.slices {
			out.oracle.checkSlice(r.a, s, fmt.Sprintf("operation %d", i))
		}
		return nil
	})
	if out.ledger != nil {
		out.ledger.total("oracle.slices_checked", float64(out.oracle.checked))
	}
	return out, err
}

// probeSetup runs this benchmark's binary in probe mode on file and
// returns the time from exec until the process has produced its result
// and exited.
func probeSetup(self, file string) (time.Duration, error) {
	cmd := exec.Command(self, "-probe", file)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	// Run waits for the probe; should the benchmark die first, the
	// kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	err := cmd.Run()
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("probe: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return d, nil
}

// runProbe is the probe process: one pipeline run over the program in
// file.
func runProbe(file string) error {
	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	_, err = pipeline(string(src), nil, nil)
	return err
}

// traceCold re-runs the timed operations with every layer timed, then
// measures the off-path layers on a sample of the same programs,
// including a daemon's cache-miss path.
func traceCold(cfg *config, sup *supervisor, out *outcome) error {
	l := newLedger()
	out.ledger = l
	// Each program also runs untraced, just before or just after its
	// traced run by turns, so the tracing overhead compares the two on
	// the same program at the same moment; set against the timed pass,
	// it measured how much the machine's speed had drifted since.
	var busy, untraced time.Duration
	procs := runtime.GOMAXPROCS(coldProcs) // as in the timed pass
	defer runtime.GOMAXPROCS(procs)
	for i := range out.lat {
		p, err := coldProgram(cfg, streamOps, i)
		if err != nil {
			return err
		}
		plain := func() error {
			t0 := time.Now()
			_, err := pipeline(p.src, nil, nil)
			untraced += time.Since(t0)
			return err
		}
		if i%2 == 0 {
			if err := plain(); err != nil {
				return err
			}
		}
		sp := &spans{l: l}
		t0 := time.Now()
		r, err := pipeline(p.src, nil, sp)
		wall := time.Since(t0)
		if err != nil {
			return err
		}
		busy += wall
		if i%2 == 1 {
			if err := plain(); err != nil {
				return err
			}
		}
		l.op(wall, sp.covered)
		// Outside the operation's clock: the analysis phases, one by
		// one, and the work counts.
		if err := shadowPhases(l.onPath, r.prog, r.analyze); err != nil {
			return err
		}
		l.onPath("lang.stmts", float64(len(lang.Statements(r.prog))))
		for i, s := range r.slices {
			sliceCounts(l.onPath, s)
			l.onPath("core.text_bytes", float64(len(r.texts[i])))
		}
	}
	l.total("trace_overhead_pct", 100*(1-untraced.Seconds()/busy.Seconds()))

	rng := rand.New(rand.NewSource(streamSeed(cfg.seed, streamEdits, 0)))
	samples, err := genPrograms(min(sweepSamples, len(out.lat)), func(i int) (program, error) {
		return coldProgram(cfg, streamOps, i)
	})
	if err != nil {
		return err
	}
	for _, p := range samples {
		if err := sweepLibrary(l, p, rng); err != nil {
			return err
		}
	}
	dir, err := sup.tempDir()
	if err != nil {
		return err
	}
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	d, err := sup.startDaemon(cfg.sliced, dir, client)
	if err != nil {
		return err
	}
	defer d.stop()
	return sweepDaemon(l, client, d, samples, samples, rng)
}
