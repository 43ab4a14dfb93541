package core

import (
	"context"
	"slices"

	"jumpslice/internal/bits"
	"jumpslice/internal/cfg"
	"jumpslice/internal/dataflow"
	"jumpslice/internal/incremental"
	"jumpslice/internal/lang"
	"jumpslice/internal/obs"
	"jumpslice/internal/pdg"
)

// numPhases is the number of construction phases the incremental
// accounting covers: cfg, postdominators, cdg, dataflow, pdg, lst,
// worklists (the phase.analyze.* spans of a cold run).
const numPhases = 7

// IncrStats reports what the incremental engine did for one
// re-analysis.
type IncrStats struct {
	// Outcome names the tier that ran: "patched" (flowgraph shape and
	// every definition survived; only edited dependence rows were
	// recomputed), "partial" (shape survived but a definition changed,
	// so the moved variables' reaching definitions were re-solved), or
	// "full" (a clean cold analysis).
	Outcome string `json:"outcome"`
	// PhasesReused / PhasesRecomputed partition the cold pipeline's
	// phases by whether the previous result was carried over.
	PhasesReused     int `json:"phases_reused"`
	PhasesRecomputed int `json:"phases_recomputed"`
	// Fallback is the reason a full run happened ("" otherwise).
	Fallback string `json:"fallback,omitempty"`
	// Edits reports the replaced statements in preorder when the
	// flowgraph survived (patched or partial). A full run reports
	// none: the shape change that forced it has no statement-level
	// edit a reuse tier could act on, and Fallback names it.
	Edits []incremental.Edit `json:"edits,omitempty"`

	// edited and rows are, ascending, the nodes whose statement
	// changed and those whose data dependence row was re-derived;
	// known reports that they are the whole change (a patched or
	// partial run that re-derived rows, not one that re-ran Reach).
	// SliceStands reads them.
	edited, rows []int
	known        bool
}

// incrMetrics resolves the incremental engine's counters: reused and
// recomputed phase counts, and full-pipeline fallbacks.
type incrMetrics struct {
	reused, recomputed, fallbacks *obs.Counter
}

func resolveIncrMetrics(rec *obs.Registry) incrMetrics {
	return incrMetrics{
		reused:     rec.Counter("incr.reused"),
		recomputed: rec.Counter("incr.recomputed"),
		fallbacks:  rec.Counter("incr.fallbacks"),
	}
}

// ReanalyzeProgram re-derives an Analysis for prog, reusing whatever
// the previous analysis proves still valid. The result is always
// exactly what AnalyzeObservedContext(ctx, prog, reg, spans) would
// produce, so callers can treat it as a faster analysis. prev may be
// nil (a plain cold analysis). prog may come from a full parse or
// from incremental.SpliceLine, which avoids the reparse that would
// otherwise dominate a one-line edit: it splices any line statement,
// labeled lines, goto retargets and break/continue swaps included,
// and yields the program the reparse would. The tier is decided here
// alone, from prev and prog, so a spliced program lands in the same
// tier as its reparse (a goto retarget or a break/continue swap
// changes the flowgraph and runs "full").
//
// Tier decision:
//
//   - A program with procedures on either side is analyzed cold
//     ("full"): reuse is per flowgraph, and such a program has one
//     per procedure.
//   - One cfg.Rebind walk of prev's program and prog in lockstep
//     decides the rest, before anything is reused. Any difference in
//     the flowgraph's makings (a statement inserted or deleted, a kind,
//     label, goto target, else branch or case value changed) falls
//     back to a cold AnalyzeObservedContext ("full"), reporting
//     Rebind's reason as Fallback and no Edits. Otherwise the
//     flowgraph is prev's, rebound onto prog's statements, and Rebind
//     names the nodes whose statement changed and whether any defines
//     a different variable; they are reported as Edits.
//   - Same shape with every definition intact reuses the
//     postdominator tree, CDG, LST, dataflow and all precomputed
//     worklists (they are pure functions of flowgraph shape, or of
//     shape plus definition sites); only the flowgraph is rebound and
//     the edited statements' dependence rows recomputed ("patched").
//   - Same shape but with a changed definition ("partial") re-solves
//     reaching definitions for the variables whose definitions moved
//     only, and re-derives the dependence rows of the nodes using
//     them, on top of the reused shape-derived structures. An edit
//     that gives a variable its first definition or takes its last
//     re-runs dataflow and the PDG merge instead.
//
// Every tier starts the result's batch condensation empty: no served
// path slices through SliceAll, so a batch call on the result
// condenses lazily, as on a cold analysis.
//
// A patched or partial run that re-derived rows also records which
// nodes changed, the edited ones and those with a re-derived row (in
// the partial tier only the rows that differ), for SliceStands to
// tell whether a slice served on prev still stands on the result.
func ReanalyzeProgram(ctx context.Context, prev *Analysis, prog *lang.Program, reg *obs.Registry, spans *obs.SpanLog) (*Analysis, *IncrStats, error) {
	o := obs.Observer{Reg: reg, Spans: spans}
	im := resolveIncrMetrics(reg)
	defer o.StartSpan("phase.reanalyze").End()

	stats := &IncrStats{}
	full := func(reason string) (*Analysis, *IncrStats, error) {
		stats.Outcome = "full"
		stats.Fallback = reason
		stats.PhasesReused = 0
		stats.PhasesRecomputed = numPhases
		im.fallbacks.Add(1)
		im.recomputed.Add(numPhases)
		a, err := AnalyzeObservedContext(ctx, prog, reg, spans)
		if err != nil {
			return nil, nil, err
		}
		return a, stats, nil
	}

	if prev == nil {
		return full("no previous analysis")
	}
	if len(prog.Procs) > 0 || len(prev.Prog.Procs) > 0 {
		return full("program declares procedures")
	}
	g2, edited, defChanged, mismatch := cfg.Rebind(prev.CFG, prog)
	if mismatch != "" {
		return full(mismatch)
	}
	stats.edited = edited
	for _, id := range edited {
		n := g2.Nodes[id]
		stats.Edits = append(stats.Edits, incremental.Edit{
			Op:   incremental.OpReplace,
			Line: n.Line,
			Text: lang.StmtString(n.Stmt),
		})
	}

	a := &Analysis{
		Prog:  prog,
		CFG:   g2,
		batch: &batchState{},
		set:   &setState{},
	}
	a.observe(o)
	a.bindContext(ctx)
	if err := a.checkCancel("reanalyze"); err != nil {
		return nil, nil, err
	}

	// Shape-pure structures: the postdominator tree holds no graph
	// reference and is shared outright; CDG and LST are shallow-copied
	// with their graph pointer rebound so queries resolve against the
	// new nodes.
	a.PDT = prev.PDT
	cd := *prev.CDG
	cd.CFG = g2
	a.CDG = &cd
	lt := *prev.LST
	lt.CFG = g2
	a.LST = &lt

	// Worklists: live, the invariant tables and the jump preorders
	// are all functions of shape and node IDs;
	// goto nodes are pointers and re-resolve into the new graph.
	a.live = prev.live
	a.enclosingSwitch = prev.enclosingSwitch
	a.jumpsPDT = prev.jumpsPDT
	a.jumpsLST = prev.jumpsLST
	a.jumpsLex = prev.jumpsLex
	a.condJumpOf = prev.condJumpOf
	a.gotoNodes = make([]*cfg.Node, len(prev.gotoNodes))
	for i, n := range prev.gotoNodes {
		a.gotoNodes[i] = g2.Nodes[n.ID]
	}

	rd, rows, rebound := prev.RD.Rebound(g2, edited)
	if defChanged {
		// Partial tier: a definition site changed variables, so the
		// reaching-definitions frontier moved. Only the moved
		// variables' definitions are re-solved, and only the rows of
		// the nodes using them (or edited) re-derived; an edit that
		// changes which variables are defined at all re-runs dataflow
		// and the PDG merge on the reused shape-derived structures.
		stats.Outcome = "partial"
		stats.PhasesReused = 4     // postdominators, cdg, lst, worklists
		stats.PhasesRecomputed = 3 // cfg, dataflow, pdg
		if rebound {
			a.RD = rd
			moved := movedRows(prev.PDG, rd, rows)
			a.PDG = prev.PDG.Rederive(g2, a.CDG, moved)
			stats.rows = make([]int, len(moved))
			for i, r := range moved {
				stats.rows[i] = r.Node
			}
			stats.known = true
		} else {
			a.RD = dataflow.Reach(g2)
			if err := a.checkCancel("reanalyze"); err != nil {
				return nil, nil, err
			}
			a.PDG = pdg.Build(g2, a.CDG, a.RD)
		}
	} else {
		// Patched tier: same definitions everywhere, so reaching
		// definitions are untouched; only the edited statements' data
		// dependence rows can differ.
		if !rebound {
			return full("definition changed under a patched edit")
		}
		stats.Outcome = "patched"
		stats.PhasesReused = 5     // postdominators, cdg, dataflow, lst, worklists
		stats.PhasesRecomputed = 2 // cfg, pdg rows
		a.RD = rd
		changed := make([]pdg.Row, len(rows))
		for i, n := range rows {
			changed[i] = pdg.Row{Node: n, Deps: rd.AppendDataDeps(nil, n)}
		}
		a.PDG = prev.PDG.Rederive(g2, a.CDG, changed)
		stats.rows, stats.known = rows, true
	}
	im.reused.Add(int64(stats.PhasesReused))
	im.recomputed.Add(int64(stats.PhasesRecomputed))
	return a, stats, nil
}

// movedRows returns the data dependence rows, under rd, of the nodes
// in rows that differ from p's: what Rederive must overlay after a
// definition move. A node using a moved variable often keeps its row
// (the move did not change which definitions reach it), and leaving
// it out keeps the overlay, and its flattening, small.
func movedRows(p *pdg.Graph, rd *dataflow.ReachingDefs, rows []int) []pdg.Row {
	var out []pdg.Row
	flat := make([]int, 0, 4*len(rows))
	for _, n := range rows {
		lo := len(flat)
		flat = rd.AppendDataDeps(flat, n)
		if slices.Equal(flat[lo:], p.DataDeps(n)) {
			flat = flat[:lo]
			continue
		}
		out = append(out, pdg.Row{Node: n, Deps: flat[lo:len(flat):len(flat)]})
	}
	return out
}

// SliceStands reports whether a slice served on prev still stands on
// a, the analysis ReanalyzeProgram returned for prev with st: whether
// the slicer named alg, run for c on a, would return exactly the slice
// whose node set on prev is nodes. It answers only for this package's
// five slicers (alg is Slice.Algorithm: conventional, Figure 7 over
// either tree, Figures 12 and 13), and only after a patched or partial
// run that re-derived rows; anything else is false.
//
// When it is true, the fresh slice's Nodes, JumpsAdded, JumpRules,
// Traversals and Relabeled equal the old slice's. Its Lines, JumpLines
// and Format are equal too when the edit moved no statement to another
// line, as a one-line incremental.SpliceLine edit never does. Explain
// is not covered: its listing prints every line of the program.
//
// Why. Such a run keeps the flowgraph's shape, and with it the
// postdominator and lexical successor trees, the control dependences,
// the two invariant tables and the jump worklists: everything the
// jump-admission loop and the label re-association read besides set
// membership. Beyond those a slicer reads only the criterion's seeds
// and the data dependence rows of the nodes that end up in its slice.
// So when the seeds are prev's and no node of the slice has a changed
// row, every step of the closure and of the admission loop reads what
// it read on prev, and by induction over the steps adds the same
// nodes. An edited node outside the slice changes none of those rows,
// but it can change the seeds (a statement on the criterion line that
// now uses the variable) and, in the partial tier, the reaching
// definitions a seedless line falls back to; hence the seeds are
// compared, not assumed. The listing prints the slice's statements,
// the header of every compound statement holding one (which need not
// be in the slice: dead code, or a branch a goto enters, is not
// control dependent on it), labels and case values. Labels and case
// values are shape, so the text stands when no edited statement's node
// span holds a node of the slice.
func SliceStands(prev, a *Analysis, st *IncrStats, alg string, c Criterion, nodes *bits.Set) bool {
	if st == nil || !st.known || !coreSlicers[alg] || nodes == nil || nodes.Cap() != a.CFG.NumNodes() {
		return false
	}
	for _, n := range st.rows {
		if nodes.Has(n) {
			return false
		}
	}
	for _, e := range st.edited {
		if n := nodes.NextSet(e); n >= 0 && n < a.CFG.StmtEnd(e) {
			return false
		}
	}
	was, err := prev.resolveCriterion(c)
	if err != nil {
		return false
	}
	now, err := a.resolveCriterion(c)
	return err == nil && slices.Equal(was, now)
}

// coreSlicers names the slicers SliceStands answers for.
var coreSlicers = map[string]bool{
	conventional.name: true,
	figure7.name:      true,
	figure7LST.name:   true,
	figure12.name:     true,
	figure13.name:     true,
}
