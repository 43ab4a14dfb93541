package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/paper"
	"jumpslice/internal/slicecache"
)

// serve-hot: repeat traffic to the service. After set-up warms the
// corpus into the analysis cache, slice and explain requests cost the
// slice fixpoint, formatting, provenance, JSON and HTTP; sdg requests
// bypass the cache and re-analyze every time.
const (
	hotOpsPerSecond = 400
	hotCorpus       = 50
	hotStmts        = 120
	hotSDGCorpus    = 16
	hotSDGPerProc   = 30 // three procedures and main: about 120 statements
	zipfS           = 1.1
)

// Request kinds of the mix, in percent: slice 60, explain 25, sdg 15.
const (
	kindSlice = iota
	kindExplain
	kindSDG
)

var kindNames = [...]string{kindSlice: "slice", kindExplain: "explain", kindSDG: "sdg"}

// hotOp is one request of the fixed sequence.
type hotOp struct{ kind, item int }

func hotSequence(seed int64, n int) []hotOp {
	rng := rand.New(rand.NewSource(streamSeed(seed, streamOps, 0)))
	corpus := rand.NewZipf(rng, zipfS, 1, hotCorpus-1)
	sdg := rand.NewZipf(rng, zipfS, 1, hotSDGCorpus-1)
	ops := make([]hotOp, n)
	for i := range ops {
		switch p := rng.Intn(100); {
		case p < 60:
			ops[i] = hotOp{kindSlice, int(corpus.Uint64())}
		case p < 85:
			ops[i] = hotOp{kindExplain, int(corpus.Uint64())}
		default:
			ops[i] = hotOp{kindSDG, int(sdg.Uint64())}
		}
	}
	return ops
}

// hotInputs is the serve-hot corpus.
type hotInputs struct {
	corpus, sdg []program
}

func (h *hotInputs) send(c *http.Client, d *daemon, o hotOp) reply {
	if o.kind == kindSDG {
		p := h.sdg[o.item]
		return slicePost(c, d, p, p.last(), false, "sdg")
	}
	p := h.corpus[o.item]
	return slicePost(c, d, p, p.last(), o.kind == kindExplain, "")
}

// closedLoop runs operations [lo, hi) on `clients` goroutines, client
// k taking operations lo+k, lo+k+clients, …
func closedLoop(lo, hi int, op func(i int)) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = guard(func() error {
				for i := lo + k; i < hi; i += clients {
					op(i)
				}
				return nil
			})
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// daemonCPU reads a daemon's CPU time.
func daemonCPU(d *daemon) func() (time.Duration, error) {
	return func() (time.Duration, error) { return procCPU(d.pid) }
}

func runServeHot(cfg *config, sup *supervisor) (*outcome, error) {
	n := cfg.ops(hotOpsPerSecond)
	in := &hotInputs{}
	var err error
	in.corpus, err = genPrograms(hotCorpus, func(i int) (program, error) {
		return genProgram(streamSeed(corpusSeed, streamCorpus, i), hotStmts, i%2 == 0)
	})
	if err != nil {
		return nil, err
	}
	in.sdg, err = genPrograms(hotSDGCorpus, func(i int) (program, error) {
		return genSDGProgram(streamSeed(corpusSeed, streamSDG, i), hotSDGPerProc)
	})
	if err != nil {
		return nil, err
	}
	ops := hotSequence(cfg.seed, n)

	dir, err := sup.tempDir()
	if err != nil {
		return nil, err
	}
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	out := &outcome{oracle: &oracle{}}
	// Set-up: exec until healthy, then every distinct request once,
	// which fills the analysis cache. The last daemon serves the run.
	var d *daemon
	for r := 0; r < setupRounds; r++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if d, err = sup.startDaemon(cfg.sliced, dir, client); err != nil {
			return nil, err
		}
		for _, o := range distinctHotOps() {
			if rep := in.send(client, d, o); !rep.ok() {
				return nil, fmt.Errorf("set-up %s request: %s", kindNames[o.kind], rep.describe())
			}
		}
		out.setup = append(out.setup, time.Since(t0))
	}

	replies, cur := make([]reply, n), make([]reply, n)
	out.lat = make([]time.Duration, n)
	hooks := chunkHooks{
		run: func(lo, hi int) error {
			return closedLoop(lo, hi, func(i int) { cur[i] = in.send(client, d, ops[i]) })
		},
		keep: func(lo, hi int) {
			for i := lo; i < hi; i++ {
				replies[i], out.lat[i] = cur[i], cur[i].rtt
			}
		},
		cpu: daemonCPU(d),
	}
	p, err := runPass(n, 1, hooks)
	if err != nil {
		return nil, err
	}
	out.wall, out.cpu = p.wall, p.cpu
	if out.peakRSSKB, err = procPeakRSSKB(d.pid); err != nil {
		return nil, err
	}
	for i := range replies {
		out.attempted++
		if !replies[i].ok() {
			out.failed++
			out.oracle.failf("request %d (%s): %s", i, kindNames[ops[i].kind], replies[i].describe())
		}
	}
	if err := checkHot(out.oracle, in, ops, replies); err != nil {
		return nil, err
	}

	if cfg.trace {
		// The traced run's operations are the pass above: the layers
		// are attributed afterwards from in-process shadow replays, and
		// nothing on the daemon's path is traced, so tracing adds no
		// time to the operations (trace_overhead_pct stays 0).
		l := newLedger()
		out.ledger = l
		if err := traceHot(cfg, l, client, d, in, ops, replies); err != nil {
			return nil, err
		}
	}

	// The paper's figures through the daemon, and the negative control.
	out.oracle.negativeControl()
	for _, f := range paper.All() {
		p := program{src: f.Source}
		crit := core.Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line}
		rep := slicePost(client, d, p, crit, false, "")
		if !rep.ok() {
			out.oracle.failf("%s via sliced: %s", f.Name, rep.describe())
			continue
		}
		var body struct{ Lines []int }
		if err := json.Unmarshal(rep.body, &body); err != nil {
			out.oracle.failf("%s via sliced: %v", f.Name, err)
			continue
		}
		out.oracle.checkFigure(f, body.Lines, "sliced /slice")
	}
	if out.ledger != nil {
		out.ledger.total("oracle.slices_checked", float64(out.oracle.checked))
	}
	return out, nil
}

// distinctHotOps lists every distinct request of the serve-hot mix.
func distinctHotOps() []hotOp {
	var out []hotOp
	for i := 0; i < hotCorpus; i++ {
		out = append(out, hotOp{kindSlice, i}, hotOp{kindExplain, i})
	}
	for i := 0; i < hotSDGCorpus; i++ {
		out = append(out, hotOp{kindSDG, i})
	}
	return out
}

// checkHot computes the library's answer to every distinct request,
// validates each Figure 7 slice with the interpreter, and compares
// every daemon reply with the library's answer.
func checkHot(o *oracle, in *hotInputs, ops []hotOp, replies []reply) error {
	distinct := distinctHotOps()
	want := make([]map[string]any, len(distinct))
	index := map[hotOp]int{}
	for i, op := range distinct {
		index[op] = i
	}
	err := parallel(len(distinct), func(i int) error {
		op := distinct[i]
		var body sliceBody
		if op.kind == kindSDG {
			p := in.sdg[op.item]
			prog, err := lang.Parse(p.src)
			if err != nil {
				return err
			}
			ps, err := core.AnalyzeProgramSet(prog)
			if err != nil {
				return err
			}
			sl, err := ps.SliceInterproc(p.last())
			if err != nil {
				return err
			}
			body = expectSDG(ps, sl, p.last())
		} else {
			p := in.corpus[op.item]
			prog, err := lang.Parse(p.src)
			if err != nil {
				return err
			}
			a, err := core.Analyze(prog)
			if err != nil {
				return err
			}
			sl, err := a.Agrawal(p.last())
			if err != nil {
				return err
			}
			if op.kind == kindSlice {
				o.checkSlice(a, sl, fmt.Sprintf("corpus program %d", op.item))
			}
			if body, err = expectSlice(a, sl, op.kind == kindExplain); err != nil {
				return err
			}
		}
		m, err := normalized(body)
		want[i] = m
		return err
	})
	if err != nil {
		return err
	}
	for i, r := range replies {
		if r.ok() {
			o.compareResponse(r.body, want[index[ops[i]]], fmt.Sprintf("request %d (%s)", i, kindNames[ops[i].kind]))
		}
	}
	return nil
}

// hotShadow is the in-process cost of one distinct request's handler
// layers: the median of shadowRepeats runs of each.
type hotShadow struct {
	layers  map[string]time.Duration
	counts  map[string]float64
	encode  time.Duration
	covered time.Duration // sum of the in-handler layers
}

const shadowRepeats = 3

// traceHot attributes the traced pass: every reply's round trip,
// handler time and transport, plus the in-handler layers measured by
// replaying each distinct request in process against a warm cache.
func traceHot(cfg *config, l *ledger, c *http.Client, d *daemon, in *hotInputs, ops []hotOp, replies []reply) error {
	reg := obs.NewRegistry()
	cache := slicecache.New(slicecache.Options{Recorder: reg})
	shadows := map[hotOp]*hotShadow{}
	for _, op := range distinctHotOps() {
		s, err := shadowHot(cache, reg, in, op)
		if err != nil {
			return err
		}
		shadows[op] = s
	}
	for i, r := range replies {
		if !r.ok() {
			continue
		}
		s := shadows[ops[i]]
		transport := recordReply(l.onPath, kindNames[ops[i].kind], r)
		for name, dur := range s.layers {
			l.onPath(name, us(dur))
		}
		for name, v := range s.counts {
			l.onPath(name, v)
		}
		l.onPath("json.encode_us", us(s.encode))
		l.op(r.rtt, s.covered+transport)
	}
	rng := rand.New(rand.NewSource(streamSeed(cfg.seed, streamEdits, 0)))
	samples := in.corpus[:sweepSamples]
	for _, p := range append(append([]program(nil), samples...), in.sdg...) {
		if err := sweepLibrary(l, p, rng); err != nil {
			return err
		}
	}
	return sweepDaemon(l, c, d, samples, in.sdg, rng)
}

// shadowHot replays one distinct request's handler layers in process:
// a cache hit, the per-request rebind, the slice, formatting and
// provenance — or, for sdg, the parse and interprocedural pipeline the
// daemon runs on every such request.
func shadowHot(cache *slicecache.Cache, reg *obs.Registry, in *hotInputs, op hotOp) (*hotShadow, error) {
	runs := make([]map[string]time.Duration, shadowRepeats)
	s := &hotShadow{counts: map[string]float64{}}
	var encodes []time.Duration
	for k := range runs {
		m := map[string]time.Duration{}
		runs[k] = m
		var body sliceBody
		var err error
		if op.kind == kindSDG {
			p := in.sdg[op.item]
			var (
				prog *lang.Program
				ps   *core.ProgramSet
				sl   *core.InterSlice
			)
			m["lang.parse_us"] = timed(func() { prog, err = lang.Parse(p.src) })
			if err != nil {
				return nil, err
			}
			m["sdg.analyze_us"] = timed(func() { ps, err = core.AnalyzeProgramSet(prog) })
			if err != nil {
				return nil, err
			}
			m["sdg.slice_us"] = timed(func() { sl, err = ps.SliceInterproc(p.last()) })
			if err != nil {
				return nil, err
			}
			m["core.format_us"] = timed(func() { body = expectSDG(ps, sl, p.last()) })
		} else {
			p := in.corpus[op.item]
			build := func(context.Context) (*core.Analysis, error) {
				prog, err := lang.Parse(p.src)
				if err != nil {
					return nil, err
				}
				a, err := core.Analyze(prog)
				if err != nil {
					return nil, err
				}
				return a.Rebind(nil, reg, nil), nil
			}
			if _, _, err := cache.Get(context.Background(), p.src, build); err != nil {
				return nil, err
			}
			var (
				cached, a *core.Analysis
				sl        *core.Slice
			)
			m["slicecache.keyof_us"] = timed(func() { slicecache.KeyOf(p.src) })
			m["slicecache.get_hit_us"] = timed(func() { cached, _, err = cache.Get(context.Background(), p.src, build) })
			if err != nil {
				return nil, err
			}
			m["core.rebind_us"] = timed(func() { a = cached.Rebind(context.Background(), reg, nil) })
			m["core.agrawal_us"] = timed(func() { sl, err = a.Agrawal(p.last()) })
			if err != nil {
				return nil, err
			}
			m["core.format_us"] = timed(func() { body, err = expectSlice(a, sl, false) })
			if err != nil {
				return nil, err
			}
			if op.kind == kindExplain {
				m["core.explain_us"] = timed(func() {
					var pv *core.Provenance
					if pv, err = sl.Explain(); err == nil {
						body.Reasons = pv.LineReasons()
						body.Listing = pv.Listing()
					}
				})
				if err != nil {
					return nil, err
				}
			}
			sliceCounts(func(name string, v float64) { s.counts[name] = v }, sl)
			s.counts["core.text_bytes"] = float64(len(body.Text))
		}
		encodes = append(encodes, timed(func() { _, err = encodeJSON(body) }))
		if err != nil {
			return nil, err
		}
	}
	s.layers = medianLayers(runs)
	for name, d := range s.layers {
		if name != "slicecache.keyof_us" { // part of get_hit
			s.covered += d
		}
	}
	s.encode = median(encodes)
	return s, nil
}

// medianLayers takes, for each layer, the median over repeated runs.
func medianLayers(runs []map[string]time.Duration) map[string]time.Duration {
	out := map[string]time.Duration{}
	for name := range runs[0] {
		var ds []time.Duration
		for _, r := range runs {
			ds = append(ds, r[name])
		}
		out[name] = median(ds)
	}
	return out
}
