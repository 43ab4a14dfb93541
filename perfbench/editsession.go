package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"jumpslice/internal/core"
	"jumpslice/internal/incremental"
	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/paper"
	"jumpslice/internal/slicecache"
)

// edit-session: editor users. Each session applies a seeded script of
// valid one-line edits, each re-slicing one fixed criterion, so the
// incremental engine does the work and every PATCH writes the
// session's analysis back into the cache.
const (
	editOpsPerSecond = 200
	editSessions     = 8 // a multiple of clients: each session stays on one client
	editStmts        = 400
	warmEdits        = 24
	maxEditTries     = 2000
)

// editMix is the share of each edit kind in a script, in percent.
var editMix = [...]int{editExpr: 60, editDef: 25, editJump: 15}

// script is one session's program, criterion and edits, each with the
// library's answer to it. The timed pass measures the edits in chunks
// (see runPass) and opens a fresh session on the original program at
// each chunk's start, so a chunk can be measured again and no chunk
// inherits the drift of earlier edits; resets holds those edit indexes.
type script struct {
	src    string
	crit   core.Criterion
	steps  []step
	resets map[int]bool
}

type step struct {
	e    edit
	tier string
	want map[string]any // with an empty session field
}

// scriptKinds returns n edit kinds in the mix's exact proportions, in
// seeded order.
func scriptKinds(rng *rand.Rand, n int) []editKind {
	var kinds []editKind
	nExpr, nDef := n*editMix[editExpr]/100, n*editMix[editDef]/100
	for i := 0; i < n; i++ {
		switch {
		case i < nExpr:
			kinds = append(kinds, editExpr)
		case i < nExpr+nDef:
			kinds = append(kinds, editDef)
		default:
			kinds = append(kinds, editJump)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// genScript builds a session script by replaying it through the
// library exactly as the daemon's PATCH handler does, starting from a
// fresh analysis of the original program at edit 0 and at every index
// in resets. A candidate edit
// is kept only if the library puts it in its kind's tier and the edited
// program terminates on every oracle input; each kept edit's slice is
// validated by the interpreter when o is non-nil.
func genScript(p program, kinds []editKind, resets map[int]bool, rng *rand.Rand, o *oracle) (*script, error) {
	sc := &script{src: p.src, crit: p.last(), resets: resets}
	var (
		src   string
		lines []string
		prev  *core.Analysis
	)
	for j, kind := range kinds {
		if j == 0 || resets[j] {
			src, lines = p.src, strings.Split(p.src, "\n")
			prog, err := lang.Parse(src)
			if err != nil {
				return nil, err
			}
			if prev, err = core.Analyze(prog); err != nil {
				return nil, err
			}
		}
		var (
			st   *step
			next *core.Analysis
			err  error
		)
		for try := 0; st == nil; try++ {
			if try == maxEditTries {
				return nil, fmt.Errorf("edit %d: no valid %s edit found", j, kindTier[kind])
			}
			e, ok := proposeEdit(rng, lines, kind)
			if !ok {
				continue
			}
			st, next, err = tryEdit(prev, src, e, sc.crit, o)
			if err != nil {
				return nil, err
			}
		}
		sc.steps = append(sc.steps, *st)
		src = applyEdit(src, st.e)
		lines[st.e.line-1] = st.e.text
		prev = next
	}
	return sc, nil
}

// tryEdit applies one candidate edit; it returns a nil step when the
// candidate is rejected.
func tryEdit(prev *core.Analysis, src string, e edit, crit core.Criterion, o *oracle) (*step, *core.Analysis, error) {
	prog, ok := incremental.SpliceLine(prev.Prog, e.line, e.text)
	if !ok {
		var err error
		if prog, err = lang.Parse(applyEdit(src, e)); err != nil {
			return nil, nil, nil
		}
	}
	a, stats, err := core.ReanalyzeProgram(context.Background(), prev, prog, nil, nil)
	if err != nil || stats.Outcome != kindTier[e.kind] {
		return nil, nil, nil
	}
	sl, err := a.Agrawal(crit)
	if err != nil {
		return nil, nil, nil
	}
	inconclusive, err := checkSemantics(a.CFG, sl.Materialize(), crit)
	switch {
	case err != nil && o != nil:
		o.failf("session edit %+v: %v", e, err)
	case err == nil && inconclusive > 0:
		return nil, nil, nil // the edit made the program loop; draw another
	case err == nil && o != nil:
		o.count(&o.checked, 1)
	}
	body, err := expectSlice(a, sl, false)
	if err != nil {
		return nil, nil, err
	}
	added, removed := sliceDelta(prev, a, crit, sl)
	want, err := normalized(patchBody{sliceBody: body, Incremental: stats, LinesAdded: added, LinesRemoved: removed})
	if err != nil {
		return nil, nil, err
	}
	return &step{e: e, tier: stats.Outcome, want: want}, a, nil
}

func runEditSession(cfg *config, sup *supervisor) (*outcome, error) {
	perSession := (cfg.ops(editOpsPerSecond) + editSessions - 1) / editSessions
	n := perSession * editSessions
	resets := map[int]bool{}
	for c := 0; c < chunks; c++ {
		lo, _ := chunkBounds(n, editSessions, c)
		resets[lo/editSessions] = true
	}
	out := &outcome{oracle: &oracle{}}
	scripts := make([]*script, editSessions+1) // the last one warms up
	err := parallel(len(scripts), func(s int) error {
		p, err := genProgram(streamSeed(corpusSeed, streamSession, s), editStmts, s%2 == 0)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(streamSeed(cfg.seed, streamEdits, s)))
		count, at, o := perSession, resets, out.oracle
		if s == editSessions {
			count, at, o = warmEdits, nil, nil
		}
		scripts[s], err = genScript(p, scriptKinds(rng, count), at, rng, o)
		return err
	})
	if err != nil {
		return nil, err
	}
	warm, scripts := scripts[editSessions], scripts[:editSessions]

	dir, err := sup.tempDir()
	if err != nil {
		return nil, err
	}
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	// Set-up: exec until healthy, then a warm-up session run to its
	// end. The last daemon serves the run.
	var d *daemon
	for r := 0; r < setupRounds; r++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if d, err = sup.startDaemon(cfg.sliced, dir, client); err != nil {
			return nil, err
		}
		id, err := openSession(client, d, warm.src)
		if err != nil {
			return nil, err
		}
		for _, st := range warm.steps {
			if rep := patchSession(client, d, id, st.e, warm.crit); !rep.ok() {
				return nil, fmt.Errorf("set-up patch: %s", rep.describe())
			}
		}
		if err := closeSession(client, d, id); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0))
	}

	// Each chunk opens one session per script, untimed, and closes them
	// afterwards.
	replies, cur := make([]reply, n), make([]reply, n)
	opSession, curSession := make([]string, n), make([]string, n)
	out.lat = make([]time.Duration, n)
	ids := make([]string, editSessions)
	hooks := chunkHooks{
		before: func(lo, hi int) error {
			for s, sc := range scripts {
				id, err := openSession(client, d, sc.src)
				if err != nil {
					return err
				}
				ids[s] = id
			}
			return nil
		},
		run: func(lo, hi int) error {
			return closedLoop(lo, hi, func(i int) {
				s, j := i%editSessions, i/editSessions
				curSession[i] = ids[s]
				cur[i] = patchSession(client, d, ids[s], scripts[s].steps[j].e, scripts[s].crit)
			})
		},
		keep: func(lo, hi int) {
			for i := lo; i < hi; i++ {
				replies[i], opSession[i], out.lat[i] = cur[i], curSession[i], cur[i].rtt
			}
		},
		after: func(lo, hi int) error {
			for _, id := range ids {
				if err := closeSession(client, d, id); err != nil {
					return err
				}
			}
			return nil
		},
		cpu: daemonCPU(d),
	}
	out.align = editSessions
	p, err := runPass(n, editSessions, hooks)
	if err != nil {
		return nil, err
	}
	out.wall, out.cpu = p.wall, p.cpu
	if out.peakRSSKB, err = procPeakRSSKB(d.pid); err != nil {
		return nil, err
	}
	for i, r := range replies {
		s, j := i%editSessions, i/editSessions
		out.attempted++
		if !r.ok() {
			out.failed++
			out.oracle.failf("session %d edit %d: %s", s, j, r.describe())
			continue
		}
		want := scripts[s].steps[j].want
		want["session"] = opSession[i]
		out.oracle.compareResponse(r.body, want, fmt.Sprintf("session %d edit %d", s, j))
	}

	if cfg.trace {
		// As on serve-hot, the layers are attributed afterwards from
		// in-process shadow replays of the pass above; nothing on the
		// daemon's path is traced (trace_overhead_pct stays 0).
		l := newLedger()
		out.ledger = l
		if err := traceEdits(cfg, l, client, d, scripts, replies); err != nil {
			return nil, err
		}
	}

	// The paper's figures through a session, and the negative control.
	out.oracle.negativeControl()
	for _, f := range paper.All() {
		crit := core.Criterion{Var: f.Criterion.Var, Line: f.Criterion.Line}
		id, err := openSession(client, d, f.Source)
		if err != nil {
			return nil, err
		}
		same := edit{line: crit.Line, text: strings.Split(f.Source, "\n")[crit.Line-1]}
		rep := patchSession(client, d, id, same, crit)
		var body struct{ Lines []int }
		if !rep.ok() || json.Unmarshal(rep.body, &body) != nil {
			out.oracle.failf("%s via session: %s", f.Name, rep.describe())
		} else {
			out.oracle.checkFigure(f, body.Lines, "sliced session")
		}
		if err := closeSession(client, d, id); err != nil {
			return nil, err
		}
	}
	if out.ledger != nil {
		out.ledger.total("oracle.slices_checked", float64(out.oracle.checked))
	}
	return out, nil
}

// traceEdits attributes the traced pass: every PATCH's round trip,
// handler time and transport, the tier counts from X-Incremental, and
// the in-handler layers measured by replaying every script in process.
func traceEdits(cfg *config, l *ledger, c *http.Client, d *daemon, scripts []*script, replies []reply) error {
	covered := make([][]time.Duration, len(scripts))
	for s, sc := range scripts {
		var err error
		if covered[s], err = shadowScript(l, sc); err != nil {
			return err
		}
	}
	for i, r := range replies {
		if !r.ok() {
			continue
		}
		s, j := i%editSessions, i/editSessions
		transport := recordReply(l.onPath, "patch", r)
		l.total("incr."+r.incr, 1)
		l.op(r.rtt, covered[s][j]+transport)
	}
	rng := rand.New(rand.NewSource(streamSeed(cfg.seed, streamEdits, editSessions+1)))
	var samples []program
	for _, sc := range scripts {
		samples = append(samples, program{src: sc.src, crits: []core.Criterion{sc.crit}})
	}
	for _, p := range samples {
		if err := sweepLibrary(l, p, rng); err != nil {
			return err
		}
	}
	return sweepDaemon(l, c, d, samples, samples, rng)
}

// shadowScript replays one script's PATCH handler layers in process and
// returns, per edit, the time those layers took.
func shadowScript(l *ledger, sc *script) ([]time.Duration, error) {
	reg := obs.NewRegistry()
	cache := slicecache.New(slicecache.Options{Recorder: reg})
	key := slicecache.SessionKey("shadow")
	var (
		src  string
		prog *lang.Program
		err  error
	)
	out := make([]time.Duration, len(sc.steps))
	for j, st := range sc.steps {
		if j == 0 || sc.resets[j] {
			src = sc.src
			if prog, err = lang.Parse(src); err != nil {
				return nil, err
			}
			a0, err := core.Analyze(prog)
			if err != nil {
				return nil, err
			}
			cache.PutKey(key, src, a0.Rebind(nil, reg, nil))
		}
		sp := &spans{l: l}
		var (
			prev, a, view *core.Analysis
			stats         *core.IncrStats
			sl            *core.Slice
			ok            bool
		)
		newSrc := applyEdit(src, st.e)
		sp.time("slicecache.get_hit_us", func() { prev, ok = cache.GetKey(key) })
		if !ok {
			return nil, fmt.Errorf("shadow session evicted")
		}
		sp.time("incremental.splice_us", func() { prog, ok = incremental.SpliceLine(prev.Prog, st.e.line, st.e.text) })
		if !ok {
			sp.time("lang.parse_us", func() { prog, err = lang.Parse(newSrc) })
			if err != nil {
				return nil, err
			}
		}
		sp.time("core.reanalyze_"+st.tier+"_us", func() { a, stats, err = core.ReanalyzeProgram(context.Background(), prev, prog, reg, nil) })
		if err != nil {
			return nil, err
		}
		if stats.Outcome != st.tier {
			return nil, fmt.Errorf("shadow edit %d landed in tier %s, not %s", j, stats.Outcome, st.tier)
		}
		reanalyze := sp.last
		sp.time("core.rebind_us", func() { view = a.Rebind(nil, reg, nil) })
		sp.time("slicecache.put_us", func() { cache.PutKey(key, newSrc, view) })
		sp.time("core.agrawal_us", func() { sl, err = a.Agrawal(sc.crit) })
		if err != nil {
			return nil, err
		}
		var body sliceBody
		sp.time("core.format_us", func() { body, err = expectSlice(a, sl, false) })
		if err != nil {
			return nil, err
		}
		var added, removed []int
		sp.time("core.agrawal_us", func() { added, removed = sliceDelta(prev, a, sc.crit, sl) })
		out[j] = sp.covered
		// Outside the handler's layers: encoding, counts, and on full
		// re-analyses the construction phases one by one.
		pb := patchBody{sliceBody: body, Incremental: stats, LinesAdded: added, LinesRemoved: removed}
		l.onPath("json.encode_us", us(timed(func() { _, err = encodeJSON(pb) })))
		if err != nil {
			return nil, err
		}
		sliceCounts(l.onPath, sl)
		l.onPath("core.text_bytes", float64(len(body.Text)))
		l.onPath("lang.stmts", float64(len(lang.Statements(a.Prog))))
		if st.tier == "full" {
			l.onPath("core.analyze_us", us(reanalyze))
			if err := shadowPhases(l.onPath, a.Prog, reanalyze); err != nil {
				return nil, err
			}
		}
		src = newSrc
	}
	return out, nil
}
