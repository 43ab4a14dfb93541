package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"time"

	"jumpslice/internal/baselines"
	"jumpslice/internal/cdg"
	"jumpslice/internal/cfg"
	"jumpslice/internal/core"
	"jumpslice/internal/dataflow"
	"jumpslice/internal/dom"
	"jumpslice/internal/incremental"
	"jumpslice/internal/lang"
	"jumpslice/internal/lst"
	"jumpslice/internal/obs"
	"jumpslice/internal/pdg"
	"jumpslice/internal/progen"
	"jumpslice/internal/slicecache"
)

// sweepSamples is how many of a workload's inputs the sweeps measure.
const sweepSamples = 12

// timed runs f and returns its duration.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// shadowPhases re-runs the six construction phases core.Analyze
// chains, calling each module's public entry point, and records their
// times and the part of analyze (the measured core.Analyze time) they
// do not cover.
func shadowPhases(rec func(string, float64), prog *lang.Program, analyze time.Duration) error {
	var (
		sum time.Duration
		g   *cfg.Graph
		err error
		pdt *dom.Tree
		cd  *cdg.Graph
		rd  *dataflow.ReachingDefs
	)
	phase := func(name string, f func()) {
		d := timed(f)
		sum += d
		rec(name, us(d))
	}
	phase("cfg.build_us", func() { g, err = cfg.Build(prog) })
	if err != nil {
		return err
	}
	phase("dom.postdom_us", func() { pdt = dom.PostDominators(g, g.Exit.ID) })
	phase("cdg.build_us", func() { cd = cdg.Build(g, pdt) })
	phase("dataflow.reach_us", func() { rd = dataflow.Reach(g) })
	phase("pdg.build_us", func() { pdg.Build(g, cd, rd) })
	phase("lst.build_us", func() { lst.Build(g) })
	rec("cfg.nodes", float64(len(g.Nodes)))
	rec("core.analyze_residual_us", us(analyze-sum))
	return nil
}

// sliceCounts records the work counts of one Figure 7 slice.
func sliceCounts(rec func(string, float64), sl *core.Slice) {
	rec("core.traversals", float64(sl.Traversals))
	rec("core.jumps_added", float64(len(sl.JumpsAdded)))
	rec("core.slice_nodes", float64(sl.Nodes.Len()))
}

// encodeJSON encodes v the way the daemon writes responses.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// sweepLibrary times every library layer once on one sample program
// and counts the Agrawal/Ball–Horwitz and SDG/inlined-Agrawal
// disagreements over its write criteria.
func sweepLibrary(l *ledger, p program, rng *rand.Rand) error {
	rec := l.swept
	var (
		prog *lang.Program
		a    *core.Analysis
		err  error
	)
	rec("lang.parse_us", us(timed(func() { prog, err = lang.Parse(p.src) })))
	if err != nil {
		return err
	}
	rec("lang.stmts", float64(len(lang.Statements(prog))))
	if len(prog.Procs) == 0 {
		d := timed(func() { a, err = core.Analyze(prog) })
		if err != nil {
			return err
		}
		rec("core.analyze_us", us(d))
		if err := shadowPhases(rec, prog, d); err != nil {
			return err
		}
		if err := sweepSingle(l, p, a, rng); err != nil {
			return err
		}
	}

	c := p.last()
	var ps *core.ProgramSet
	sdgProg, _ := lang.Parse(p.src) // parsed fine above
	rec("sdg.analyze_us", us(timed(func() { ps, err = core.AnalyzeProgramSet(sdgProg) })))
	if err != nil {
		return err
	}
	rec("sdg.slice_us", us(timed(func() { _, err = ps.SliceInterproc(c) })))
	if err != nil {
		return err
	}
	mism, err := sdgInlineMismatches(sdgProg, ps, p.crits)
	l.total("sdg.inline_mismatch", float64(mism))
	return err
}

// sweepSingle covers the single-procedure layers: slicing, provenance,
// incremental re-analysis, the analysis cache and JSON encoding.
func sweepSingle(l *ledger, p program, a *core.Analysis, rng *rand.Rand) error {
	rec := l.swept
	c := p.last()
	var (
		sl  *core.Slice
		err error
	)
	rec("core.sliceall_us", us(timed(func() { _, err = a.SliceAll(p.crits) })))
	if err != nil {
		return err
	}
	rec("core.agrawal_us", us(timed(func() { sl, err = a.Agrawal(c) })))
	if err != nil {
		return err
	}
	sliceCounts(rec, sl)
	var text string
	rec("core.format_us", us(timed(func() { text = sl.Format() })))
	rec("core.text_bytes", float64(len(text)))
	rec("core.explain_us", us(timed(func() {
		var pv *core.Provenance
		if pv, err = sl.Explain(); err == nil {
			pv.LineReasons()
			_ = pv.Listing()
		}
	})))
	if err != nil {
		return err
	}
	body, err := expectSlice(a, sl, true)
	if err != nil {
		return err
	}
	rec("json.encode_us", us(timed(func() { _, err = encodeJSON(body) })))
	if err != nil {
		return err
	}

	mism := 0
	for _, wc := range p.crits {
		ag, err1 := a.Agrawal(wc)
		bh, err2 := baselines.BallHorwitz(a, wc)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("ball-horwitz comparison: %v %v", err1, err2)
		}
		if !reflect.DeepEqual(ag.LiveStatementNodes(), bh.LiveStatementNodes()) {
			mism++
		}
	}
	l.total("core.agrawal_bh_mismatch", float64(mism))

	// One edit of each kind through the incremental engine.
	lines := strings.Split(p.src, "\n")
	for _, kind := range []editKind{editExpr, editDef, editJump} {
		for try := 0; try < 20; try++ {
			e, ok := proposeEdit(rng, lines, kind)
			if !ok {
				continue
			}
			var prog *lang.Program
			rec("incremental.splice_us", us(timed(func() { prog, ok = incremental.SpliceLine(a.Prog, e.line, e.text) })))
			if !ok {
				if prog, err = lang.Parse(applyEdit(p.src, e)); err != nil {
					continue
				}
			}
			var stats *core.IncrStats
			d := timed(func() { _, stats, err = core.ReanalyzeProgram(context.Background(), a, prog, nil, nil) })
			if err != nil {
				continue
			}
			rec("core.reanalyze_"+stats.Outcome+"_us", us(d))
			if stats.Outcome == kindTier[kind] {
				break
			}
		}
	}

	reg := obs.NewRegistry()
	cache := slicecache.New(slicecache.Options{Recorder: reg})
	build := func(context.Context) (*core.Analysis, error) { return a.Rebind(nil, reg, nil), nil }
	rec("slicecache.keyof_us", us(timed(func() { slicecache.KeyOf(p.src) })))
	if _, _, err := cache.Get(context.Background(), p.src, build); err != nil {
		return err
	}
	var hit *core.Analysis
	rec("slicecache.get_hit_us", us(timed(func() { hit, _, err = cache.Get(context.Background(), p.src, build) })))
	if err != nil {
		return err
	}
	rec("core.rebind_us", us(timed(func() { hit.Rebind(context.Background(), reg, nil) })))
	rec("slicecache.put_us", us(timed(func() { cache.PutKey(slicecache.SessionKey("sweep"), p.src, hit) })))
	return nil
}

// sdgInlineMismatches counts the criteria whose SDG slice differs,
// outside call statements and procedure headers, from the Figure 7
// slice of the program with every procedure inlined.
func sdgInlineMismatches(prog *lang.Program, ps *core.ProgramSet, crits []core.Criterion) (int, error) {
	inl, lmap, err := progen.InlineMain(prog)
	if err != nil {
		return 0, err
	}
	inv := make(map[int]int, len(lmap))
	for il, ol := range lmap {
		inv[ol] = il
	}
	a, err := core.Analyze(inl)
	if err != nil {
		return 0, err
	}
	structural := map[int]bool{}
	for _, s := range prog.Body {
		if call, ok := s.(*lang.CallStmt); ok {
			structural[call.P.Line] = true
		}
	}
	for _, pd := range prog.Procs {
		structural[pd.P.Line] = true
	}
	mism := 0
	for _, c := range crits {
		got, err := ps.SliceInterproc(c)
		if err != nil {
			return 0, err
		}
		want, err := a.Agrawal(core.Criterion{Var: c.Var, Line: inv[c.Line]})
		if err != nil {
			return 0, err
		}
		var mapped, sdgLines []int
		for _, l := range want.Lines() {
			mapped = append(mapped, lmap[l])
		}
		sort.Ints(mapped)
		for _, l := range got.Lines() {
			if !structural[l] {
				sdgLines = append(sdgLines, l)
			}
		}
		if !reflect.DeepEqual(mapped, sdgLines) {
			mism++
		}
	}
	return mism, nil
}

// sweepDaemon sends each sample through every request kind the daemon
// serves — slice, explain, sdg and a session edit — and records the
// HTTP layer's numbers as sweep measurements.
func sweepDaemon(l *ledger, c *http.Client, d *daemon, samples, sdgSamples []program, rng *rand.Rand) error {
	for i, p := range samples {
		sp := sdgSamples[i%len(sdgSamples)]
		for _, r := range []struct {
			kind    string
			p       program
			explain bool
			algo    string
		}{{"slice", p, false, ""}, {"explain", p, true, ""}, {"sdg", sp, false, "sdg"}} {
			rep := slicePost(c, d, r.p, r.p.last(), r.explain, r.algo)
			if !rep.ok() {
				return fmt.Errorf("sweep %s request: %s", r.kind, rep.describe())
			}
			recordReply(l.swept, r.kind, rep)
		}
		var (
			e  edit
			ok bool
		)
		for try := 0; !ok && try < 20; try++ {
			e, ok = proposeEdit(rng, strings.Split(p.src, "\n"), editExpr)
		}
		if !ok {
			return fmt.Errorf("sweep: sample %d has no assignment to edit", i)
		}
		id, err := openSession(c, d, p.src)
		if err != nil {
			return err
		}
		rep := patchSession(c, d, id, e, p.last())
		if !rep.ok() {
			return fmt.Errorf("sweep patch request: %s", rep.describe())
		}
		recordReply(l.swept, "patch", rep)
		if err := closeSession(c, d, id); err != nil {
			return err
		}
	}
	return nil
}
