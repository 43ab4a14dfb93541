// Package exps implements the repository's quantitative experiments
// (EXPERIMENTS.md, tables E1–E4, E6 and E7) over generated program
// corpora. cmd/slicebench is a thin flag-and-printing wrapper around
// this package; keeping the engines importable lets bench_test.go
// measure them (serial versus parallel) and lets other tools reuse
// the corpus evaluation harness.
//
// Every experiment fans its corpus programs out over a worker pool
// (Options.Parallel) and reduces per-seed partial results in seed
// order, so parallel runs produce tables identical to serial ones —
// all aggregation is integer sums and histogram merges, which are
// order-independent, and the reduction order is fixed regardless.
package exps

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"jumpslice/internal/baselines"
	"jumpslice/internal/cluster"
	"jumpslice/internal/core"
	"jumpslice/internal/dynslice"
	"jumpslice/internal/incremental"
	"jumpslice/internal/interp"
	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/progen"
	"jumpslice/internal/slicecache"
)

// Options configures an experiment run.
type Options struct {
	// Seeds is the number of generated programs per corpus.
	Seeds int
	// Stmts is the approximate statement count per program.
	Stmts int
	// Parallel is the worker pool size for fanning corpus programs
	// out; values below 1 (and 1) evaluate serially. DefaultParallel
	// picks the machine's GOMAXPROCS.
	Parallel int
	// Recorder, when non-nil, collects pipeline metrics across every
	// seed of the run: per-phase analysis spans, fixpoint traversal
	// counts, jump admissions, closure cache hits. All workers share
	// it — the instruments are atomic, and sums commute, so the
	// counter state is identical at any Parallel.
	Recorder *obs.Registry
	// Tracer, when non-nil, journals structured trace events (phase
	// spans, traversal passes, jump admissions with rule evidence,
	// cache activity) for every seed into its flight recorder. All
	// workers share it; the ring's writers are lock-free, so tracing
	// does not serialize the pool.
	Tracer *obs.Tracer
	// Context, when non-nil, cancels the run cooperatively: the
	// worker pool stops dispatching new seeds once it is canceled,
	// and each in-flight seed's analysis and slicing pipeline checks
	// it at phase and fixpoint boundaries (see internal/core), so a
	// long corpus sweep aborts promptly with an error wrapping
	// ctx.Err(). Nil means no cancellation.
	Context context.Context
	// Cache, when non-nil, memoizes completed analyses by content
	// hash of the generated program text. Experiments regenerate and
	// re-analyze the same (seed, stmts) programs — every table over
	// one corpus shares its seeds — so a cache shared across an -all
	// run analyzes each program once and every later experiment
	// rebinds the cached result to its own context and instruments.
	// Coalescing also collapses the duplicate analyses a parallel run
	// would otherwise do when two experiments race on one seed.
	Cache *slicecache.Cache
}

// ctx returns the run's context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}

// DefaultParallel is the worker pool size used when the caller does
// not choose one: the runtime's GOMAXPROCS.
func DefaultParallel() int { return runtime.GOMAXPROCS(0) }

// Report bundles every experiment's rows for machine consumption
// (cmd/slicebench -json). Experiments that were not run are nil.
type Report struct {
	Seeds    int            `json:"seeds"`
	Stmts    int            `json:"stmts"`
	Parallel int            `json:"parallel"`
	E1       []PrecisionRow `json:"precision,omitempty"`
	E2       []SoundnessRow `json:"soundness,omitempty"`
	E3       []TimingRow    `json:"timing,omitempty"`
	E4       []TraversalRow `json:"traversals,omitempty"`
	E6       []DynamicRow   `json:"dynamic,omitempty"`
	E7       []IncrRow      `json:"incremental,omitempty"`
	E8       []SDGRow       `json:"sdg,omitempty"`
	E9       []ClusterRow   `json:"cluster,omitempty"`
	// Metrics is the registry snapshot taken after the run, when the
	// caller attached an Options.Recorder: phase timings, traversal
	// and jump counters, closure cache statistics.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Trace summarizes the flight recorder after the run, when the
	// caller attached an Options.Tracer: how many events the run
	// published, how many the bounded ring had to evict, and how many
	// remained buffered.
	Trace *TraceStats `json:"trace,omitempty"`
	// Cache is the analysis cache's closing snapshot, when the run
	// was given an Options.Cache (cmd/slicebench always gives one):
	// how many analyses were reused versus built, and the resident
	// byte ledger.
	Cache *slicecache.Stats `json:"cache,omitempty"`
}

// TraceStats is the flight-recorder accounting of one traced run.
type TraceStats struct {
	Capacity int    `json:"capacity"`
	Written  uint64 `json:"events_written"`
	Dropped  uint64 `json:"events_dropped"`
	Buffered int    `json:"events_buffered"`
}

// TraceStatsOf summarizes a flight recorder (nil for a nil recorder).
func TraceStatsOf(fr *obs.FlightRecorder) *TraceStats {
	if fr == nil {
		return nil
	}
	return &TraceStats{
		Capacity: fr.Cap(),
		Written:  fr.Written(),
		Dropped:  fr.Dropped(),
		Buffered: len(fr.Events()),
	}
}

// PrecisionRow is one E1 table row: mean slice sizes for an
// algorithm on a corpus.
type PrecisionRow struct {
	Algorithm string  `json:"algorithm"`
	Corpus    string  `json:"corpus"`
	MeanStmts float64 `json:"mean_stmts"`
	MeanJumps float64 `json:"mean_jumps"`
	Cases     int     `json:"cases"`
}

// SoundnessRow is one E2 table row: how many slices reproduce the
// original program's criterion observations.
type SoundnessRow struct {
	Algorithm string `json:"algorithm"`
	Corpus    string `json:"corpus"`
	Sound     int    `json:"sound"`
	Cases     int    `json:"cases"`
}

// Rate returns the soundness rate in percent.
func (r SoundnessRow) Rate() float64 { return 100 * float64(r.Sound) / float64(r.Cases) }

// TraversalRow is one corpus of E4: the histogram of Figure 7
// traversal counts, as sorted (count, cases) pairs.
type TraversalRow struct {
	Corpus string         `json:"corpus"`
	Counts []TraversalBin `json:"counts"`
}

// TraversalBin is one histogram bin of a TraversalRow.
type TraversalBin struct {
	Traversals int `json:"traversals"`
	Cases      int `json:"cases"`
}

// DynamicRow is one E6 table row: dynamic versus static slice size
// for one corpus and input profile.
type DynamicRow struct {
	Corpus       string  `json:"corpus"`
	Profile      string  `json:"profile"`
	DynamicStmts float64 `json:"dynamic_stmts"`
	StaticStmts  float64 `json:"static_stmts"`
	Cases        int     `json:"cases"`
}

// IncrRow is one E7 table row: outcomes of a replayed edit script on
// one corpus. Edits partitions into the three reuse tiers of
// core.ReanalyzeProgram; the ratio compares the incremental
// re-analysis against a cold parse-free re-analysis of the same
// edited program.
type IncrRow struct {
	Corpus  string `json:"corpus"`
	Edits   int    `json:"edits"`
	Patched int    `json:"patched"`
	Partial int    `json:"partial"`
	Full    int    `json:"full"`
	// MeanRatio is the mean per-edit incremental/cold wall-clock
	// ratio; MeanIncrNs and MeanColdNs are the component means.
	MeanRatio  float64 `json:"mean_incr_cold_ratio"`
	MeanIncrNs float64 `json:"mean_incr_ns"`
	MeanColdNs float64 `json:"mean_cold_ns"`
}

// SDGRow is one E8 table row: two-pass interprocedural slicing over
// the multi-procedure corpus at one procedure count. Cold is the
// first slice of a program set (it pays for the summary-edge
// worklist); warm slices reuse the cached summaries.
type SDGRow struct {
	Procs       int     `json:"procs"`
	Sets        int     `json:"sets"`
	Cases       int     `json:"cases"`
	MeanLines   float64 `json:"mean_lines"`
	MeanJumps   float64 `json:"mean_jumps_added"`
	MeanSummary float64 `json:"mean_summary_edges"`
	MeanRounds  float64 `json:"mean_summary_rounds"`
	MeanColdNs  float64 `json:"mean_cold_ns"`
	MeanWarmNs  float64 `json:"mean_warm_ns"`
}

// ClusterRow is one E9 table row: consistent-hash routing simulated
// over the content-addressed corpus at one fleet size. The corpus
// keys are the real SHA-256 program addresses a sliced fleet routes
// on, and the request stream is zipf-skewed the way repeat slice
// traffic is; the numbers are deterministic per (seeds, stmts).
type ClusterRow struct {
	Nodes int `json:"nodes"`
	Keys  int `json:"keys"`
	// Balance is max/mean keys owned per node — 1.0 is a perfect
	// shard, the ring's vnode count bounds how close it gets.
	Balance float64 `json:"balance"`
	// RemoteRate is the fraction of uniformly-ingressed requests whose
	// owner is another node — each is one proxy (or peer-fill) hop.
	RemoteRate float64 `json:"remote_rate"`
	// HotShare is the busiest node's share of the zipf request stream
	// — how much of the hot head one shard absorbs.
	HotShare float64 `json:"hot_share"`
	// MovedOnLeave is the fraction of keys that change owner when one
	// node leaves; consistent hashing promises about 1/n.
	MovedOnLeave float64 `json:"moved_on_leave"`
}

// TimingRow is one E3 table row: mean wall-clock per slice for an
// algorithm across program sizes. Cells follow the Sizes order; a
// negative duration means "not applicable" (structured-only algorithm
// on an unstructured program).
type TimingRow struct {
	Algorithm string          `json:"algorithm"`
	Cells     []time.Duration `json:"cells_ns"`
}

// TimingSizes are the program sizes of the E3 sweep.
var TimingSizes = []int{20, 60, 180, 540}

// AlgoEntry names one slicing algorithm for the sweeps.
type AlgoEntry struct {
	Name       string
	Structured bool // requires a structured program
	Run        func(a *core.Analysis, c core.Criterion) (*core.Slice, error)
}

// Algorithms lists the algorithms each experiment sweeps.
func Algorithms() []AlgoEntry {
	return []AlgoEntry{
		{"conventional", false, baselines.ByName["conventional"]},
		{"agrawal (Fig 7)", false, baselines.ByName["agrawal"]},
		{"structured (Fig 12)", true, baselines.ByName["structured"]},
		{"conservative (Fig 13)", true, baselines.ByName["conservative"]},
		{"weiser", false, baselines.ByName["weiser"]},
		{"ball-horwitz", false, baselines.ByName["ball-horwitz"]},
		{"lyle", false, baselines.ByName["lyle"]},
		{"gallagher", false, baselines.ByName["gallagher"]},
		{"jiang-zhou-robson", false, baselines.ByName["jzr"]},
	}
}

// CorpusNames lists the generated corpora in table order.
func CorpusNames() []string { return []string{"structured", "unstructured"} }

// generator returns the program generator of a corpus.
func generator(corpus string, stmts int) func(int64) *lang.Program {
	switch corpus {
	case "structured":
		return func(s int64) *lang.Program { return progen.Structured(progen.Config{Seed: s, Stmts: stmts}) }
	case "unstructured":
		return func(s int64) *lang.Program { return progen.Unstructured(progen.Config{Seed: s, Stmts: stmts}) }
	}
	panic("exps: unknown corpus " + corpus)
}

// seedCase is one generated program with its slicing criteria (the
// last two write criteria, matching the historical tables).
type seedCase struct {
	prog  *lang.Program
	an    *core.Analysis
	crits []core.Criterion
}

// analyze runs the analysis pipeline on p, through the run's cache
// when one is configured: keyed by the program's printed text, built
// detached on a miss, and rebound to this call's context and
// instruments either way.
func (o Options) analyze(ctx context.Context, p *lang.Program) (*core.Analysis, error) {
	rec, tr := o.Recorder, o.Tracer
	if o.Cache == nil {
		return core.AnalyzeObservedContext(ctx, p, rec, tr)
	}
	cached, _, err := o.Cache.Get(ctx, lang.Format(p, lang.PrintOptions{}), func(bctx context.Context) (*core.Analysis, error) {
		built, err := core.AnalyzeObservedContext(bctx, p, rec, tr)
		if err != nil {
			return nil, err
		}
		return built.Rebind(nil, rec, nil), nil
	})
	if err != nil {
		return nil, err
	}
	return cached.Rebind(ctx, rec, tr), nil
}

// analyzeSeed builds the per-seed case every experiment starts from,
// recording the analysis phases on the run's registry (nil for none).
// The context cancels the analysis cooperatively at phase boundaries.
func analyzeSeed(ctx context.Context, gen func(int64) *lang.Program, seed int64, o Options) (seedCase, error) {
	p := gen(seed)
	a, err := o.analyze(ctx, p)
	if err != nil {
		return seedCase{}, fmt.Errorf("seed %d: %w", seed, err)
	}
	wcs := progen.WriteCriteria(p)
	if len(wcs) > 2 {
		wcs = wcs[len(wcs)-2:]
	}
	crits := make([]core.Criterion, len(wcs))
	for i, wc := range wcs {
		crits[i] = core.Criterion{Var: wc.Var, Line: wc.Line}
	}
	return seedCase{prog: p, an: a, crits: crits}, nil
}

// runSeeds evaluates fn for seeds 0..n-1 over a pool of parallel
// workers and returns the results in seed order. With parallel <= 1
// it runs serially. The first error (by seed order, for determinism)
// aborts the run. A canceled ctx stops dispatching further seeds —
// in-flight seeds abort through their own cooperative checks — and
// the run reports the cancellation.
func runSeeds[T any](ctx context.Context, n, parallel int, fn func(seed int64) (T, error)) ([]T, error) {
	out := make([]T, n)
	if parallel <= 1 || n <= 1 {
		for s := 0; s < n; s++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("exps: run canceled before seed %d: %w", s, err)
			}
			r, err := fn(int64(s))
			if err != nil {
				return nil, err
			}
			out[s] = r
		}
		return out, nil
	}
	if parallel > n {
		parallel = n
	}
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				out[s], errs[s] = fn(int64(s))
			}
		}()
	}
dispatch:
	for s := 0; s < n; s++ {
		select {
		case next <- s:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exps: run canceled: %w", err)
	}
	return out, nil
}

// Precision computes E1: mean statements and mean jump statements per
// slice, per algorithm and corpus.
func Precision(o Options) ([]PrecisionRow, error) {
	algos := Algorithms()
	ctx := o.ctx()
	type totals struct{ stmts, jumps, cases int }
	var rows []PrecisionRow
	for _, corpus := range CorpusNames() {
		gen := generator(corpus, o.Stmts)
		parts, err := runSeeds(ctx, o.Seeds, o.Parallel, func(seed int64) ([]totals, error) {
			sc, err := analyzeSeed(ctx, gen, seed, o)
			if err != nil {
				return nil, err
			}
			per := make([]totals, len(algos))
			for ai, ae := range algos {
				if ae.Structured && !sc.an.Structured() {
					continue
				}
				for _, c := range sc.crits {
					s, err := ae.Run(sc.an, c)
					if err != nil {
						if errors.Is(err, core.ErrUnstructured) {
							continue
						}
						return nil, err
					}
					per[ai].cases++
					for _, id := range s.StatementNodes() {
						per[ai].stmts++
						if sc.an.CFG.Nodes[id].Kind.IsJump() {
							per[ai].jumps++
						}
					}
				}
			}
			return per, nil
		})
		if err != nil {
			return nil, err
		}
		for ai, ae := range algos {
			var t totals
			for _, per := range parts {
				t.stmts += per[ai].stmts
				t.jumps += per[ai].jumps
				t.cases += per[ai].cases
			}
			if t.cases == 0 {
				continue
			}
			rows = append(rows, PrecisionRow{
				Algorithm: ae.Name,
				Corpus:    corpus,
				MeanStmts: float64(t.stmts) / float64(t.cases),
				MeanJumps: float64(t.jumps) / float64(t.cases),
				Cases:     t.cases,
			})
		}
	}
	return rows, nil
}

// SoundnessInputs are the shared input streams of the E2 check.
var SoundnessInputs = [][]int64{nil, {1, 2, 3}, {-5, 7, 0, 2, 9, -1}, {8, 8, -8, 8}, {0, 0, 0, 1, 1, 1}}

// equalInt64s reports whether two observation streams are identical.
// It replaces reflect.DeepEqual in the hot comparison loop; nil and
// empty are considered equal, matching observation semantics (no
// output is no output).
func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// sound checks one slice against the original on the shared inputs.
func sound(orig *lang.Program, s *core.Slice) (bool, error) {
	sliced := s.Materialize()
	for _, in := range SoundnessInputs {
		want, err := interp.Observe(orig, in, s.Criterion.Var, s.Criterion.Line)
		if err != nil {
			return false, err
		}
		got, err := interp.Observe(sliced, in, s.Criterion.Var, s.Criterion.Line)
		if errors.Is(err, interp.ErrStepBudget) {
			return false, nil // diverging slice: definitely wrong
		}
		if err != nil {
			return false, err
		}
		if !equalInt64s(got, want) {
			return false, nil
		}
	}
	return true, nil
}

// Soundness computes E2: the fraction of criteria whose slice
// reproduces the original observations.
func Soundness(o Options) ([]SoundnessRow, error) {
	algos := Algorithms()
	ctx := o.ctx()
	type totals struct{ ok, cases int }
	var rows []SoundnessRow
	for _, corpus := range CorpusNames() {
		gen := generator(corpus, o.Stmts)
		parts, err := runSeeds(ctx, o.Seeds, o.Parallel, func(seed int64) ([]totals, error) {
			sc, err := analyzeSeed(ctx, gen, seed, o)
			if err != nil {
				return nil, err
			}
			per := make([]totals, len(algos))
			for ai, ae := range algos {
				if ae.Structured && !sc.an.Structured() {
					continue
				}
				for _, c := range sc.crits {
					s, err := ae.Run(sc.an, c)
					if err != nil {
						if errors.Is(err, core.ErrUnstructured) {
							continue
						}
						return nil, err
					}
					good, err := sound(sc.prog, s)
					if err != nil {
						return nil, err
					}
					per[ai].cases++
					if good {
						per[ai].ok++
					}
				}
			}
			return per, nil
		})
		if err != nil {
			return nil, err
		}
		for ai, ae := range algos {
			var t totals
			for _, per := range parts {
				t.ok += per[ai].ok
				t.cases += per[ai].cases
			}
			if t.cases == 0 {
				continue
			}
			rows = append(rows, SoundnessRow{Algorithm: ae.Name, Corpus: corpus, Sound: t.ok, Cases: t.cases})
		}
	}
	return rows, nil
}

// Traversals computes E4: the distribution of Figure 7 traversal
// counts per corpus.
func Traversals(o Options) ([]TraversalRow, error) {
	ctx := o.ctx()
	var rows []TraversalRow
	for _, corpus := range CorpusNames() {
		gen := generator(corpus, o.Stmts)
		parts, err := runSeeds(ctx, o.Seeds, o.Parallel, func(seed int64) (map[int]int, error) {
			sc, err := analyzeSeed(ctx, gen, seed, o)
			if err != nil {
				return nil, err
			}
			hist := map[int]int{}
			for _, c := range sc.crits {
				s, err := sc.an.Agrawal(c)
				if err != nil {
					return nil, err
				}
				hist[s.Traversals]++
			}
			return hist, nil
		})
		if err != nil {
			return nil, err
		}
		hist := map[int]int{}
		for _, h := range parts {
			for k, v := range h {
				hist[k] += v
			}
		}
		var keys []int
		for k := range hist {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		row := TraversalRow{Corpus: corpus}
		for _, k := range keys {
			row.Counts = append(row.Counts, TraversalBin{Traversals: k, Cases: hist[k]})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DynamicProfiles are the E6 input profiles, in table order.
var DynamicProfiles = []struct {
	Name  string
	Input []int64
}{
	{"empty input", nil},
	{"short input", []int64{1, -2}},
	{"mixed input", []int64{3, -1, 4, 0, 5, -9, 2}},
}

// Dynamic computes E6: dynamic slice size as a fraction of the static
// (Figure 7) slice, per corpus and input profile.
func Dynamic(o Options) ([]DynamicRow, error) {
	ctx := o.ctx()
	var rows []DynamicRow
	for _, corpus := range CorpusNames() {
		gen := generator(corpus, o.Stmts)
		for _, prof := range DynamicProfiles {
			prof := prof
			type totals struct{ dyn, stat, cases int }
			parts, err := runSeeds(ctx, o.Seeds, o.Parallel, func(seed int64) (totals, error) {
				sc, err := analyzeSeed(ctx, gen, seed, o)
				if err != nil {
					return totals{}, err
				}
				var t totals
				for _, c := range sc.crits {
					static, err := sc.an.Agrawal(c)
					if err != nil {
						return totals{}, err
					}
					dyn, err := dynslice.Slice(sc.an, c, dynslice.Options{Input: prof.Input})
					if err != nil {
						return totals{}, err
					}
					t.dyn += len(dyn.StatementNodes())
					t.stat += len(static.StatementNodes())
					t.cases++
				}
				return t, nil
			})
			if err != nil {
				return nil, err
			}
			var t totals
			for _, p := range parts {
				t.dyn += p.dyn
				t.stat += p.stat
				t.cases += p.cases
			}
			rows = append(rows, DynamicRow{
				Corpus:       corpus,
				Profile:      prof.Name,
				DynamicStmts: float64(t.dyn) / float64(t.cases),
				StaticStmts:  float64(t.stat) / float64(t.cases),
				Cases:        t.cases,
			})
		}
	}
	return rows, nil
}

// Timing computes E3: mean wall-clock per slice (analysis excluded)
// per algorithm and program size, plus a row for the batch engine
// (SliceAll's marginal per-slice cost with a warm condensation). The
// (algorithm, size) cells are fanned out over the worker pool; cell
// identities are deterministic, wall-clock values naturally are not.
func Timing(o Options) ([]TimingRow, error) {
	algos := Algorithms()
	rows := make([]TimingRow, len(algos)+1)
	type cell struct{ row, col int }
	var cells []cell
	for ri := range algos {
		rows[ri] = TimingRow{Algorithm: algos[ri].Name, Cells: make([]time.Duration, len(TimingSizes))}
		for ci := range TimingSizes {
			cells = append(cells, cell{ri, ci})
		}
	}
	batch := len(algos)
	rows[batch] = TimingRow{Algorithm: "agrawal (batch)", Cells: make([]time.Duration, len(TimingSizes))}
	for ci := range TimingSizes {
		cells = append(cells, cell{batch, ci})
	}
	const reps = 50
	ctx := o.ctx()
	_, err := runSeeds(ctx, len(cells), o.Parallel, func(i int64) (struct{}, error) {
		c := cells[i]
		size := TimingSizes[c.col]
		p := progen.Structured(progen.Config{Seed: 1, Stmts: size})
		a, err := o.analyze(ctx, p)
		if err != nil {
			return struct{}{}, err
		}
		wcs := progen.WriteCriteria(p)
		crit := core.Criterion{Var: wcs[len(wcs)-1].Var, Line: wcs[len(wcs)-1].Line}
		if c.row == batch {
			crits := []core.Criterion{crit}
			if _, err := a.SliceAll(crits); err != nil { // warm the condensation
				return struct{}{}, err
			}
			start := time.Now()
			for r := 0; r < reps; r++ {
				if _, err := a.SliceAll(crits); err != nil {
					return struct{}{}, err
				}
			}
			rows[c.row].Cells[c.col] = time.Since(start) / reps
			return struct{}{}, nil
		}
		ae := algos[c.row]
		if ae.Structured && !a.Structured() {
			rows[c.row].Cells[c.col] = -1
			return struct{}{}, nil
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := ae.Run(a, crit); err != nil {
				return struct{}{}, err
			}
		}
		rows[c.row].Cells[c.col] = time.Since(start) / reps
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// SDGProcCounts are the procedure counts of the E8 sweep.
var SDGProcCounts = []int{2, 4, 8}

// SDG computes E8: two-pass HRB slicing over the multi-procedure
// corpus, sweeping the procedure count. Each program set is sliced on
// its main write criteria; the first slice is the cold measurement
// (it runs the summary-edge worklist), later criteria reuse the
// cached summaries and measure the warm path.
func SDG(o Options) ([]SDGRow, error) {
	ctx := o.ctx()
	var rows []SDGRow
	for _, np := range SDGProcCounts {
		np := np
		type totals struct {
			sets, cases, colds, warms     int
			lines, jumps, summary, rounds float64
			coldNs, warmNs                float64
		}
		parts, err := runSeeds(ctx, o.Seeds, o.Parallel, func(seed int64) (totals, error) {
			p := progen.MultiProc(progen.Config{Seed: seed, Stmts: o.Stmts, Procs: np})
			a, err := core.AnalyzeObservedContext(ctx, p, o.Recorder, o.Tracer)
			if err != nil {
				return totals{}, fmt.Errorf("seed %d: %w", seed, err)
			}
			ps, err := a.ProgramSet()
			if err != nil {
				return totals{}, fmt.Errorf("seed %d: %w", seed, err)
			}
			crits := progen.MainWriteCriteria(p)
			var t totals
			for i, wc := range crits {
				c := core.Criterion{Var: wc.Var, Line: wc.Line}
				start := time.Now()
				s, err := ps.SliceInterproc(c)
				d := time.Since(start)
				if err != nil {
					return totals{}, fmt.Errorf("seed %d %v: %w", seed, c, err)
				}
				if i == 0 {
					t.coldNs += float64(d)
					t.colds++
				} else {
					t.warmNs += float64(d)
					t.warms++
				}
				t.lines += float64(len(s.Lines()))
				t.jumps += float64(s.JumpsAdded)
				t.cases++
			}
			st := ps.SDG.Stats()
			t.summary = float64(st.SummaryEdges)
			t.rounds = float64(st.SummaryRounds)
			t.sets = 1
			return t, nil
		})
		if err != nil {
			return nil, err
		}
		var t totals
		for _, p := range parts {
			t.sets += p.sets
			t.cases += p.cases
			t.colds += p.colds
			t.warms += p.warms
			t.lines += p.lines
			t.jumps += p.jumps
			t.summary += p.summary
			t.rounds += p.rounds
			t.coldNs += p.coldNs
			t.warmNs += p.warmNs
		}
		if t.cases == 0 {
			continue
		}
		row := SDGRow{
			Procs:       np,
			Sets:        t.sets,
			Cases:       t.cases,
			MeanLines:   t.lines / float64(t.cases),
			MeanJumps:   t.jumps / float64(t.cases),
			MeanSummary: t.summary / float64(t.sets),
			MeanRounds:  t.rounds / float64(t.sets),
		}
		if t.colds > 0 {
			row.MeanColdNs = t.coldNs / float64(t.colds)
		}
		if t.warms > 0 {
			row.MeanWarmNs = t.warmNs / float64(t.warms)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// incrEdits builds the deterministic per-seed edit script of E7: for
// up to three spliceable assignment lines (first, middle, last — the
// positions an editor loop actually touches), three one-line edits
// each designed to land in a different reuse tier. Whether a tier is
// actually reached is measured, not assumed — that is the point of
// the experiment.
func incrEdits(p *lang.Program) []struct {
	Line int
	Text string
} {
	var cands []*lang.AssignStmt
	for _, s := range lang.Statements(p) {
		as, ok := s.(*lang.AssignStmt)
		if !ok {
			continue
		}
		if _, ok := incremental.SpliceLine(p, as.Pos().Line, as.Name+" = 0;"); ok {
			cands = append(cands, as)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	picks := []*lang.AssignStmt{cands[0]}
	if len(cands) > 2 {
		picks = append(picks, cands[len(cands)/2])
	}
	if len(cands) > 1 {
		picks = append(picks, cands[len(cands)-1])
	}
	var edits []struct {
		Line int
		Text string
	}
	for _, as := range picks {
		line := as.Pos().Line
		edits = append(edits,
			// Same defined variable, new expression: shape and defs
			// survive, so the patched tier should absorb it.
			struct {
				Line int
				Text string
			}{line, fmt.Sprintf("%s = %s + 1;", as.Name, as.Name)},
			// New defined variable: shape survives but a definition
			// moved, so dataflow must re-run (partial tier).
			struct {
				Line int
				Text string
			}{line, fmt.Sprintf("e7_%s = %s;", as.Name, as.Name)},
			// Statement kind change: the flowgraph rebind refuses and
			// the engine falls back to a full cold run.
			struct {
				Line int
				Text string
			}{line, fmt.Sprintf("write(%s);", as.Name)},
		)
	}
	return edits
}

// Incr computes E7: replay a deterministic edit script per seed
// through the incremental re-analysis engine and report how edits
// distribute over the reuse tiers, plus the wall-clock ratio of the
// incremental path against a cold re-analysis of the same edited
// program. The base analysis is warmed with one SliceAll — the state
// a sliced session holds — so condensation patching is exercised.
func Incr(o Options) ([]IncrRow, error) {
	ctx := o.ctx()
	type totals struct {
		edits, patched, partial, full int
		ratioSum, incrNs, coldNs      float64
	}
	var rows []IncrRow
	for _, corpus := range CorpusNames() {
		gen := generator(corpus, o.Stmts)
		parts, err := runSeeds(ctx, o.Seeds, o.Parallel, func(seed int64) (totals, error) {
			p := gen(seed)
			// The previous analysis is built cold and privately: the
			// run cache would hand out an analysis shared with other
			// experiments, and warming its condensation here would
			// leak E7's access pattern into their measurements.
			prev, err := core.AnalyzeObservedContext(ctx, p, o.Recorder, o.Tracer)
			if err != nil {
				return totals{}, fmt.Errorf("seed %d: %w", seed, err)
			}
			wcs := progen.WriteCriteria(p)
			if len(wcs) > 0 {
				c := core.Criterion{Var: wcs[len(wcs)-1].Var, Line: wcs[len(wcs)-1].Line}
				if _, err := prev.SliceAll([]core.Criterion{c}); err != nil {
					return totals{}, fmt.Errorf("seed %d: warm slice: %w", seed, err)
				}
			}
			var t totals
			for _, e := range incrEdits(p) {
				p2, ok := incremental.SpliceLine(p, e.Line, e.Text)
				if !ok {
					continue
				}
				start := time.Now()
				_, stats, err := core.ReanalyzeProgram(ctx, prev, p2, o.Recorder, o.Tracer)
				incr := time.Since(start)
				if err != nil {
					return totals{}, fmt.Errorf("seed %d line %d: %w", seed, e.Line, err)
				}
				start = time.Now()
				if _, err := core.AnalyzeObservedContext(ctx, p2, o.Recorder, o.Tracer); err != nil {
					return totals{}, fmt.Errorf("seed %d line %d: cold: %w", seed, e.Line, err)
				}
				cold := time.Since(start)
				t.edits++
				switch stats.Outcome {
				case "patched":
					t.patched++
				case "partial":
					t.partial++
				default:
					t.full++
				}
				t.incrNs += float64(incr)
				t.coldNs += float64(cold)
				if cold > 0 {
					t.ratioSum += float64(incr) / float64(cold)
				}
			}
			return t, nil
		})
		if err != nil {
			return nil, err
		}
		var t totals
		for _, p := range parts {
			t.edits += p.edits
			t.patched += p.patched
			t.partial += p.partial
			t.full += p.full
			t.ratioSum += p.ratioSum
			t.incrNs += p.incrNs
			t.coldNs += p.coldNs
		}
		if t.edits == 0 {
			continue
		}
		n := float64(t.edits)
		rows = append(rows, IncrRow{
			Corpus:     corpus,
			Edits:      t.edits,
			Patched:    t.patched,
			Partial:    t.partial,
			Full:       t.full,
			MeanRatio:  t.ratioSum / n,
			MeanIncrNs: t.incrNs / n,
			MeanColdNs: t.coldNs / n,
		})
	}
	return rows, nil
}

// ClusterNodeCounts are the fleet sizes of the E9 sweep.
var ClusterNodeCounts = []int{2, 3, 5, 8}

// clusterRequests is the length of the simulated zipf request stream
// per fleet size.
const clusterRequests = 20000

// Cluster computes E9: consistent-hash routing over the structured
// corpus's real content addresses. No daemons run — the experiment
// exercises internal/cluster's ring exactly as a sliced fleet would
// (same SHA-256 keys, same vnode count) and measures the shard
// balance, the remote-hop rate under uniform ingress, the hot shard's
// share of a zipf-skewed stream, and the churn of one node leaving.
// Everything is seeded, so the table is identical on every machine.
func Cluster(o Options) ([]ClusterRow, error) {
	ctx := o.ctx()
	// The corpus keys: one content address per generated program, the
	// very bytes slicecache.KeyOf routes on in production.
	keys := make([][]byte, o.Seeds)
	parts, err := runSeeds(ctx, o.Seeds, o.Parallel, func(seed int64) ([]byte, error) {
		p := progen.Structured(progen.Config{Seed: seed, Stmts: o.Stmts})
		k := slicecache.KeyOf(lang.Format(p, lang.PrintOptions{}))
		return k[:], nil
	})
	if err != nil {
		return nil, err
	}
	copy(keys, parts)

	var rows []ClusterRow
	for _, n := range ClusterNodeCounts {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("node-%02d:7070", i)
		}
		ring := cluster.NewRing(nodes)

		owners := make([]string, len(keys))
		perNode := map[string]int{}
		for i, k := range keys {
			owners[i] = ring.Owner(k)
			perNode[owners[i]]++
		}
		maxKeys := 0
		for _, c := range perNode {
			if c > maxKeys {
				maxKeys = c
			}
		}

		// The zipf stream: rank 0 is the hottest program, ingress is a
		// uniformly random node (a load balancer without affinity).
		rng := rand.New(rand.NewSource(int64(n)))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(keys)-1))
		remote := 0
		served := map[string]int{}
		for i := 0; i < clusterRequests; i++ {
			owner := owners[int(zipf.Uint64())]
			served[owner]++
			if nodes[rng.Intn(n)] != owner {
				remote++
			}
		}
		hot := 0
		for _, c := range served {
			if c > hot {
				hot = c
			}
		}

		// Churn: node 0 leaves, how many keys move?
		smaller := cluster.NewRing(nodes[1:])
		moved := 0
		for i, k := range keys {
			if smaller.Owner(k) != owners[i] {
				moved++
			}
		}

		rows = append(rows, ClusterRow{
			Nodes:        n,
			Keys:         len(keys),
			Balance:      float64(maxKeys) * float64(n) / float64(len(keys)),
			RemoteRate:   float64(remote) / float64(clusterRequests),
			HotShare:     float64(hot) / float64(clusterRequests),
			MovedOnLeave: float64(moved) / float64(len(keys)),
		})
	}
	return rows, nil
}
