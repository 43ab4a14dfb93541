package core

import (
	"sort"

	"jumpslice/internal/bits"
	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
)

// Materialize projects the slice back onto the program text, producing
// a runnable subprogram:
//
//   - statements whose flowgraph node is in the slice are kept;
//   - compound statements are kept when their predicate is in the
//     slice or any nested statement is (structural closure — with the
//     dependence closure this only triggers for gotos into branches);
//   - pruned branches collapse to empty blocks so the kept structure
//     still parses;
//   - switch clauses survive even when emptied (an emptied clause must
//     still fall through into a later kept clause), except trailing
//     empty clauses, which are behaviourally inert and dropped — the
//     paper's Figure 14-b drops case 3 the same way;
//   - goto labels whose statement was pruned re-attach to the
//     statement of their nearest postdominator in the slice, per the
//     paper's final step; a label retargeted past the last statement
//     becomes a trailing "L: ;".
//
// The result shares unpruned statement values with the original AST,
// so printed line numbers match the original program, as in the
// paper's figure listings.
func (s *Slice) Materialize() *lang.Program {
	a := s.Analysis
	m := &materializer{slice: s, proj: newSliceProjection(s)}

	out := &lang.Program{Labels: map[string]*lang.LabeledStmt{}}
	for _, st := range a.Prog.Body {
		if r := m.rebuild(st); r != nil {
			out.Body = append(out.Body, r)
		}
	}
	// Labels re-attached past the end of the program.
	for _, label := range m.proj.labelsAt(a.CFG.Exit.ID) {
		out.Body = append(out.Body, &lang.LabeledStmt{
			Label: label,
			Stmt:  &lang.EmptyStmt{},
		})
	}
	// Rebuild the label index.
	var index func(st lang.Stmt)
	index = func(st lang.Stmt) {
		lang.Walk(st, func(x lang.Stmt) {
			if l, ok := x.(*lang.LabeledStmt); ok {
				out.Labels[l.Label] = l
			}
		})
	}
	for _, st := range out.Body {
		index(st)
	}
	return out
}

// Format pretty-prints the slice with the original line numbers,
// matching the paper's figure style. The text is lang.Format of
// Materialize's program, printed straight from the original AST: the
// projection reads each statement's membership off the node set by
// its preorder ordinal (cfg.FirstStmt), so no pruned copy is built and
// no statement is looked up by pointer.
func (s *Slice) Format() string {
	return lang.FormatProjection(s.Analysis.Prog, s.projectedBody(), nil, lang.PrintOptions{LineNumbers: true})
}

// projectedBody is the slice as the printer sees the body it was
// computed over: its projection and the labels retargeted past the
// body's last statement.
func (s *Slice) projectedBody() lang.ProjectedBody {
	p := newSliceProjection(s)
	return lang.ProjectedBody{Proj: p, Trailing: p.labelsAt(s.Analysis.CFG.Exit.ID)}
}

// sliceProjection is a slice as the printer sees it: its node set and
// its retargeted labels grouped by the node they attach in front of.
type sliceProjection struct {
	nodes *bits.Set
	// labels[i] re-attaches to node labelNode[i]. Relabeled is a map;
	// the pairs are sorted by node, then label, so the projection is a
	// pure function of the slice (the daemon's ETag and the cache's
	// byte-identical-response property both assume deterministic
	// output).
	labelNode []int
	labels    []string
	// A slice rarely retargets more labels than these hold.
	nodeBuf  [4]int
	labelBuf [4]string
}

func newSliceProjection(s *Slice) *sliceProjection {
	p := &sliceProjection{nodes: s.Nodes}
	p.labelNode, p.labels = p.nodeBuf[:0], p.labelBuf[:0]
	for label, id := range s.Relabeled {
		i := len(p.labels)
		p.labelNode, p.labels = append(p.labelNode, id), append(p.labels, label)
		for ; i > 0 && (p.labelNode[i-1] > id || p.labelNode[i-1] == id && p.labels[i-1] > label); i-- {
			p.labelNode[i], p.labels[i] = p.labelNode[i-1], p.labels[i-1]
		}
		p.labelNode[i], p.labels[i] = id, label
	}
	return p
}

// labelsAt returns the labels retargeted onto node id, sorted; nil for
// none.
func (p *sliceProjection) labelsAt(id int) []string {
	if len(p.labelNode) == 0 {
		return nil
	}
	lo := sort.SearchInts(p.labelNode, id)
	hi := lo
	for hi < len(p.labelNode) && p.labelNode[hi] == id {
		hi++
	}
	if lo == hi {
		return nil
	}
	return p.labels[lo:hi:hi]
}

func (p *sliceProjection) Keep(ord int) bool       { return p.nodes.Has(cfg.FirstStmt + ord) }
func (p *sliceProjection) Labels(ord int) []string { return p.labelsAt(cfg.FirstStmt + ord) }

type materializer struct {
	slice *Slice
	// proj holds the retargeted labels to attach in front of each
	// node's statement.
	proj *sliceProjection
}

// inSlice reports whether the statement's own node is in the slice.
func (m *materializer) inSlice(st lang.Stmt) bool {
	n := m.slice.Analysis.CFG.NodeFor(st)
	return n != nil && m.slice.Nodes.Has(n.ID)
}

// anyKept reports whether any node-bearing statement in the subtree is
// in the slice.
func (m *materializer) anyKept(st lang.Stmt) bool {
	kept := false
	lang.Walk(st, func(x lang.Stmt) {
		if kept {
			return
		}
		switch x.(type) {
		case *lang.BlockStmt, *lang.LabeledStmt:
			return
		}
		if m.inSlice(x) {
			kept = true
		}
	})
	return kept
}

// wrapRetargeted prefixes st with any labels retargeted onto its node.
func (m *materializer) wrapRetargeted(st lang.Stmt, node *cfg.Node) lang.Stmt {
	if node == nil {
		return st
	}
	labels := m.proj.labelsAt(node.ID)
	// Attach in reverse so the first label ends up outermost; the
	// order among multiple retargeted labels is not semantically
	// significant.
	for i := len(labels) - 1; i >= 0; i-- {
		st = &lang.LabeledStmt{P: st.Pos(), Label: labels[i], Stmt: st}
	}
	return st
}

// rebuild returns the materialized version of st, or nil if nothing of
// it survives.
func (m *materializer) rebuild(st lang.Stmt) lang.Stmt {
	cfgNode := m.slice.Analysis.CFG.NodeFor(st)
	switch st := st.(type) {
	case nil:
		return nil
	case *lang.LabeledStmt:
		inner := m.rebuild(st.Stmt)
		if inner == nil {
			return nil
		}
		return &lang.LabeledStmt{P: st.P, Label: st.Label, Stmt: inner}
	case *lang.AssignStmt, *lang.ReadStmt, *lang.WriteStmt, *lang.GotoStmt,
		*lang.BreakStmt, *lang.ContinueStmt, *lang.ReturnStmt, *lang.CallStmt, *lang.EmptyStmt:
		if !m.inSlice(st) {
			return nil
		}
		return m.wrapRetargeted(st, cfgNode)
	case *lang.IfStmt:
		if !m.inSlice(st) && !m.anyKept(st) {
			return nil
		}
		out := &lang.IfStmt{P: st.P, Cond: st.Cond}
		out.Then = m.rebuildBranch(st.Then, st.P)
		if st.Else != nil {
			if e := m.rebuild(st.Else); e != nil {
				out.Else = e
			}
		}
		return m.wrapRetargeted(out, cfgNode)
	case *lang.WhileStmt:
		if !m.inSlice(st) && !m.anyKept(st) {
			return nil
		}
		out := &lang.WhileStmt{P: st.P, Cond: st.Cond}
		out.Body = m.rebuildBranch(st.Body, st.P)
		return m.wrapRetargeted(out, cfgNode)
	case *lang.SwitchStmt:
		if !m.inSlice(st) && !m.anyKept(st) {
			return nil
		}
		out := &lang.SwitchStmt{P: st.P, Tag: st.Tag}
		// Strict projection keeps every clause (an emptied clause must
		// still fall through into a later kept clause, or the slice's
		// dispatch behaviour changes); only trailing clauses with no
		// surviving statements are dropped, which is behaviourally
		// neutral and matches the paper's Figure 14-b dropping case 3.
		for _, c := range st.Cases {
			var body []lang.Stmt
			for _, bs := range c.Body {
				if r := m.rebuild(bs); r != nil {
					body = append(body, r)
				}
			}
			out.Cases = append(out.Cases, &lang.CaseClause{
				P: c.P, Values: c.Values, IsDefault: c.IsDefault, Body: body,
			})
		}
		last := len(out.Cases) - 1
		for last >= 0 && len(out.Cases[last].Body) == 0 {
			last--
		}
		out.Cases = out.Cases[:last+1]
		return m.wrapRetargeted(out, cfgNode)
	case *lang.BlockStmt:
		var list []lang.Stmt
		for _, bs := range st.List {
			if r := m.rebuild(bs); r != nil {
				list = append(list, r)
			}
		}
		if len(list) == 0 {
			return nil
		}
		return &lang.BlockStmt{P: st.P, List: list}
	}
	return nil
}

// rebuildBranch materializes an if/while body, substituting an empty
// block when nothing survives so the compound statement still parses.
func (m *materializer) rebuildBranch(st lang.Stmt, pos lang.Pos) lang.Stmt {
	if r := m.rebuild(st); r != nil {
		return r
	}
	return &lang.BlockStmt{P: pos}
}
