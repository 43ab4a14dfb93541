package core

import (
	"context"
	"slices"

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
	// Edits reports the statement-level edits: the replaced
	// statements in preorder when the flowgraph survived, or
	// incremental.EditScript's insert/delete/relabel/replace script
	// when a shape change forced a full run.
	Edits []incremental.Edit `json:"edits,omitempty"`
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
//     back to a cold AnalyzeObservedContext ("full"), reporting the
//     fingerprint edit script. Otherwise the flowgraph is prev's,
//     rebound onto prog's statements, and Rebind names the nodes
//     whose statement changed and whether any defines a different
//     variable.
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
		stats.Edits = incremental.EditScript(prev.Prog, prog)
		return full(mismatch)
	}
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
			a.PDG = prev.PDG.Rederive(g2, a.CDG, movedRows(prev.PDG, rd, rows))
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
