package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
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

// options configures an experiment run.
type options struct {
	ctx context.Context
	// seeds is the number of generated programs per corpus, stmts the
	// approximate statement count per program.
	seeds, stmts int
	// parallel is the worker pool size for fanning corpus programs out;
	// values up to 1 evaluate serially.
	parallel int
	// rec, when non-nil, collects pipeline metrics across every seed.
	// All workers share it: the instruments are atomic and sums
	// commute, so the counters are identical at any parallelism.
	rec *obs.Registry
}

// Report bundles every experiment's rows for -json. Experiments that
// were not run are nil.
type Report struct {
	Seeds    int            `json:"seeds"`
	Stmts    int            `json:"stmts"`
	Parallel int            `json:"parallel"`
	E1       []PrecisionRow `json:"precision,omitempty"`
	E2       []SoundnessRow `json:"soundness,omitempty"`
	E4       []TraversalRow `json:"traversals,omitempty"`
	E6       []DynamicRow   `json:"dynamic,omitempty"`
	E7       []IncrRow      `json:"incremental,omitempty"`
	E8       []SDGRow       `json:"sdg,omitempty"`
	E9       []ClusterRow   `json:"cluster,omitempty"`
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
	// owner is another node — each is one proxy hop.
	RemoteRate float64 `json:"remote_rate"`
	// HotShare is the busiest node's share of the zipf request stream
	// — how much of the hot head one shard absorbs.
	HotShare float64 `json:"hot_share"`
	// MovedOnLeave is the fraction of keys that change owner when one
	// node leaves; consistent hashing promises about 1/n.
	MovedOnLeave float64 `json:"moved_on_leave"`
}

// algorithm is one intraprocedural algorithm of the E1 and E2 tables:
// its table label and its baselines.ByName key. A structured-only
// algorithm is not run on unstructured programs.
type algorithm struct {
	label, key string
	structured bool
}

// fig7 is the baselines.ByName key of the Figure 7 algorithm, whose
// slices E4 and E6 also measure.
const fig7 = "agrawal"

// algorithms are the algorithms E1 and E2 sweep, in table order.
var algorithms = []algorithm{
	{"conventional", "conventional", false},
	{"agrawal (Fig 7)", "agrawal", false},
	{"structured (Fig 12)", "structured", true},
	{"conservative (Fig 13)", "conservative", true},
	{"weiser", "weiser", false},
	{"ball-horwitz", "ball-horwitz", false},
	{"lyle", "lyle", false},
	{"gallagher", "gallagher", false},
	{"jiang-zhou-robson", "jzr", false},
}

// corpora are the generated corpora, in table order.
var corpora = []struct {
	name string
	gen  func(progen.Config) *lang.Program
}{
	{"structured", progen.Structured},
	{"unstructured", progen.Unstructured},
}

// soundnessInputs are the shared input streams of the E2 check.
var soundnessInputs = [][]int64{nil, {1, 2, 3}, {-5, 7, 0, 2, 9, -1}, {8, 8, -8, 8}, {0, 0, 0, 1, 1, 1}}

// dynamicProfiles are the E6 input profiles, in table order.
var dynamicProfiles = []struct {
	name  string
	input []int64
}{
	{"empty input", nil},
	{"short input", []int64{1, -2}},
	{"mixed input", []int64{3, -1, 4, 0, 5, -9, 2}},
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
				return nil, fmt.Errorf("run canceled before seed %d: %w", s, err)
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
		return nil, fmt.Errorf("run canceled: %w", err)
	}
	return out, nil
}

// lastWriteCriteria returns p's last two write criteria, the criteria
// of every corpus table.
func lastWriteCriteria(p *lang.Program) []core.Criterion {
	wcs := progen.WriteCriteria(p)
	if len(wcs) > 2 {
		wcs = wcs[len(wcs)-2:]
	}
	crits := make([]core.Criterion, len(wcs))
	for i, wc := range wcs {
		crits[i] = core.Criterion{Var: wc.Var, Line: wc.Line}
	}
	return crits
}

// seedTally is one seed program's contribution to the corpus tables.
type seedTally struct {
	// algos is indexed like the swept algorithms. The Figure 7 entry's
	// cases and statements are also E4's and E6's cases and static
	// slice sizes.
	algos      []algoTally
	traversals map[int]int // E4: Figure 7 traversal count → cases
	dynamic    []int       // E6: dynamic slice statements per profile
}

type algoTally struct{ cases, stmts, jumps, sound int }

// sweepCorpora computes the selected corpus tables (E1, E2, E4 and E6)
// into r in one pass per corpus. Each seed program is analyzed once,
// each swept algorithm slices each criterion once, and every selected
// table tallies that slice. Seeds are reduced in seed order, and a
// table row with no cases is skipped.
func sweepCorpora(o options, sel map[string]bool, r *Report) error {
	algos := algorithms
	if !sel["precision"] && !sel["soundness"] {
		i := slices.IndexFunc(algorithms, func(al algorithm) bool { return al.key == fig7 })
		algos = algorithms[i : i+1] // E4 and E6 need only the Figure 7 slice
	}
	for _, corpus := range corpora {
		parts, err := runSeeds(o.ctx, o.seeds, o.parallel, func(seed int64) (seedTally, error) {
			p := corpus.gen(progen.Config{Seed: seed, Stmts: o.stmts})
			a, err := core.AnalyzeObservedContext(o.ctx, p, o.rec, nil)
			if err != nil {
				return seedTally{}, fmt.Errorf("seed %d: %w", seed, err)
			}
			t := seedTally{
				algos:      make([]algoTally, len(algos)),
				traversals: map[int]int{},
				dynamic:    make([]int, len(dynamicProfiles)),
			}
			for _, c := range lastWriteCriteria(p) {
				var want [][]int64
				if sel["soundness"] {
					if want, err = observe(p, c); err != nil {
						return seedTally{}, err
					}
				}
				for ai, al := range algos {
					if al.structured && !a.Structured() {
						continue
					}
					s, err := baselines.ByName[al.key](a, c)
					if errors.Is(err, core.ErrUnstructured) {
						continue
					}
					if err != nil {
						return seedTally{}, err
					}
					at := &t.algos[ai]
					at.cases++
					nodes := s.StatementNodes()
					at.stmts += len(nodes)
					for _, id := range nodes {
						if a.CFG.Nodes[id].Kind.IsJump() {
							at.jumps++
						}
					}
					if sel["soundness"] {
						good, err := sound(s, want)
						if err != nil {
							return seedTally{}, err
						}
						if good {
							at.sound++
						}
					}
					if al.key != fig7 {
						continue
					}
					t.traversals[s.Traversals]++
					if sel["dynamic"] {
						for pi, prof := range dynamicProfiles {
							dyn, err := dynslice.Slice(a, c, dynslice.Options{Input: prof.input})
							if err != nil {
								return seedTally{}, err
							}
							t.dynamic[pi] += len(dyn.StatementNodes())
						}
					}
				}
			}
			return t, nil
		})
		if err != nil {
			return err
		}

		total := seedTally{algos: make([]algoTally, len(algos)), traversals: map[int]int{}, dynamic: make([]int, len(dynamicProfiles))}
		for _, part := range parts {
			for ai, at := range part.algos {
				tt := &total.algos[ai]
				tt.cases += at.cases
				tt.stmts += at.stmts
				tt.jumps += at.jumps
				tt.sound += at.sound
			}
			for k, v := range part.traversals {
				total.traversals[k] += v
			}
			for pi, d := range part.dynamic {
				total.dynamic[pi] += d
			}
		}
		for ai, al := range algos {
			t := total.algos[ai]
			if t.cases == 0 {
				continue
			}
			if sel["precision"] {
				r.E1 = append(r.E1, PrecisionRow{
					Algorithm: al.label,
					Corpus:    corpus.name,
					MeanStmts: float64(t.stmts) / float64(t.cases),
					MeanJumps: float64(t.jumps) / float64(t.cases),
					Cases:     t.cases,
				})
			}
			if sel["soundness"] {
				r.E2 = append(r.E2, SoundnessRow{Algorithm: al.label, Corpus: corpus.name, Sound: t.sound, Cases: t.cases})
			}
			if al.key != fig7 {
				continue
			}
			if sel["traversals"] {
				keys := make([]int, 0, len(total.traversals))
				for k := range total.traversals {
					keys = append(keys, k)
				}
				sort.Ints(keys)
				row := TraversalRow{Corpus: corpus.name}
				for _, k := range keys {
					row.Counts = append(row.Counts, TraversalBin{Traversals: k, Cases: total.traversals[k]})
				}
				r.E4 = append(r.E4, row)
			}
			if sel["dynamic"] {
				for pi, prof := range dynamicProfiles {
					r.E6 = append(r.E6, DynamicRow{
						Corpus:       corpus.name,
						Profile:      prof.name,
						DynamicStmts: float64(total.dynamic[pi]) / float64(t.cases),
						StaticStmts:  float64(t.stmts) / float64(t.cases),
						Cases:        t.cases,
					})
				}
			}
		}
	}
	return nil
}

// observe records the original program's observations of c on each
// soundness input.
func observe(p *lang.Program, c core.Criterion) ([][]int64, error) {
	want := make([][]int64, len(soundnessInputs))
	for i, in := range soundnessInputs {
		got, err := interp.Observe(p, in, c.Var, c.Line)
		if err != nil {
			return nil, err
		}
		want[i] = got
	}
	return want, nil
}

// sound reports whether slice s reproduces the original's
// observations on every soundness input. A diverging slice is
// definitely wrong; nil and empty streams are equal (no output is no
// output).
func sound(s *core.Slice, want [][]int64) (bool, error) {
	sliced := s.Materialize()
	for i, in := range soundnessInputs {
		got, err := interp.Observe(sliced, in, s.Criterion.Var, s.Criterion.Line)
		if errors.Is(err, interp.ErrStepBudget) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		if !slices.Equal(got, want[i]) {
			return false, nil
		}
	}
	return true, nil
}

// sdgProcCounts are the procedure counts of the E8 sweep.
var sdgProcCounts = []int{2, 4, 8}

// sdgTable computes E8: two-pass HRB slicing over the multi-procedure
// corpus, sweeping the procedure count. Each program set is sliced on
// its main write criteria; the first slice is the cold measurement
// (it runs the summary-edge worklist), later criteria reuse the
// cached summaries and measure the warm path.
func sdgTable(o options) ([]SDGRow, error) {
	var rows []SDGRow
	for _, np := range sdgProcCounts {
		type totals struct {
			sets, cases, colds, warms     int
			lines, jumps, summary, rounds float64
			coldNs, warmNs                float64
		}
		parts, err := runSeeds(o.ctx, o.seeds, o.parallel, func(seed int64) (totals, error) {
			p := progen.MultiProc(progen.Config{Seed: seed, Stmts: o.stmts, Procs: np})
			a, err := core.AnalyzeObservedContext(o.ctx, p, o.rec, nil)
			if err != nil {
				return totals{}, fmt.Errorf("seed %d: %w", seed, err)
			}
			ps, err := a.ProgramSet()
			if err != nil {
				return totals{}, fmt.Errorf("seed %d: %w", seed, err)
			}
			var t totals
			for i, wc := range progen.MainWriteCriteria(p) {
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

// edit is one line replacement of the E7 edit script.
type edit struct {
	line int
	text string
}

// incrEdits builds the deterministic per-seed edit script of E7: for
// up to three spliceable assignment lines (first, middle, last — the
// positions an editor loop actually touches), three one-line edits
// each designed to land in a different reuse tier. Whether a tier is
// actually reached is measured, not assumed — that is the point of
// the experiment.
func incrEdits(p *lang.Program) []edit {
	// SpliceLine takes the whole line, so each edit keeps the line's
	// labels: the listing's text less the statement's.
	texts := lang.LineTexts(p)
	prefix := func(as *lang.AssignStmt) string {
		return strings.TrimSuffix(texts[as.Pos().Line], lang.StmtString(as))
	}
	var cands []*lang.AssignStmt
	for _, s := range lang.Statements(p) {
		as, ok := s.(*lang.AssignStmt)
		if !ok {
			continue
		}
		if _, ok := incremental.SpliceLine(p, as.Pos().Line, prefix(as)+as.Name+" = 0;"); ok {
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
	var edits []edit
	for _, as := range picks {
		line, labels := as.Pos().Line, prefix(as)
		edits = append(edits,
			// Same defined variable, new expression: shape and defs
			// survive, so the patched tier should absorb it.
			edit{line, fmt.Sprintf("%s%s = %s + 1;", labels, as.Name, as.Name)},
			// New defined variable: shape survives but a definition
			// moved, so dataflow must re-run (partial tier).
			edit{line, fmt.Sprintf("%se7_%s = %s;", labels, as.Name, as.Name)},
			// Statement kind change: the flowgraph rebind refuses and
			// the engine falls back to a full cold run.
			edit{line, fmt.Sprintf("%swrite(%s);", labels, as.Name)},
		)
	}
	return edits
}

// incrTable computes E7: replay a deterministic edit script per seed
// through the incremental re-analysis engine and report how edits
// distribute over the reuse tiers, plus the wall-clock ratio of the
// incremental path against a cold re-analysis of the same edited
// program. Each seed's donor is a plain analysis, as a sliced
// session's is (no served path builds the batch condensation); that
// private donor is why E7 keeps its own corpus loop.
func incrTable(o options) ([]IncrRow, error) {
	type totals struct {
		edits, patched, partial, full int
		ratioSum, incrNs, coldNs      float64
	}
	var rows []IncrRow
	for _, corpus := range corpora {
		parts, err := runSeeds(o.ctx, o.seeds, o.parallel, func(seed int64) (totals, error) {
			p := corpus.gen(progen.Config{Seed: seed, Stmts: o.stmts})
			prev, err := core.AnalyzeObservedContext(o.ctx, p, o.rec, nil)
			if err != nil {
				return totals{}, fmt.Errorf("seed %d: %w", seed, err)
			}
			var t totals
			for _, e := range incrEdits(p) {
				p2, ok := incremental.SpliceLine(p, e.line, e.text)
				if !ok {
					continue
				}
				start := time.Now()
				_, stats, err := core.ReanalyzeProgram(o.ctx, prev, p2, o.rec, nil)
				incr := time.Since(start)
				if err != nil {
					return totals{}, fmt.Errorf("seed %d line %d: %w", seed, e.line, err)
				}
				start = time.Now()
				if _, err := core.AnalyzeObservedContext(o.ctx, p2, o.rec, nil); err != nil {
					return totals{}, fmt.Errorf("seed %d line %d: cold: %w", seed, e.line, err)
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
			Corpus:     corpus.name,
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

// clusterNodeCounts are the fleet sizes of the E9 sweep.
var clusterNodeCounts = []int{2, 3, 5, 8}

// clusterRequests is the length of the simulated zipf request stream
// per fleet size.
const clusterRequests = 20000

// clusterTable computes E9: consistent-hash routing over the
// structured corpus's real content addresses. No daemons run — the
// experiment exercises internal/cluster's ring exactly as a sliced
// fleet would (same SHA-256 keys, same vnode count) and measures the
// shard balance, the remote-hop rate under uniform ingress, the hot
// shard's share of a zipf-skewed stream, and the churn of one node
// leaving. Everything is seeded, so the table is identical on every
// machine.
func clusterTable(o options) ([]ClusterRow, error) {
	// The corpus keys: one content address per generated program, the
	// very bytes slicecache.KeyOf routes on in production.
	keys, err := runSeeds(o.ctx, o.seeds, o.parallel, func(seed int64) ([]byte, error) {
		p := progen.Structured(progen.Config{Seed: seed, Stmts: o.stmts})
		k := slicecache.KeyOf(lang.Format(p, lang.PrintOptions{}))
		return k[:], nil
	})
	if err != nil {
		return nil, err
	}

	var rows []ClusterRow
	for _, n := range clusterNodeCounts {
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
			maxKeys = max(maxKeys, c)
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
			hot = max(hot, c)
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
