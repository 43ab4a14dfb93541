package core

import (
	"sort"

	"jumpslice/internal/bits"
	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
)

// Materialize projects the slice back onto the program text,
// producing a runnable subprogram: lang.Project keeps each statement
// whose flowgraph node is in the slice, with the compound statements,
// switch clauses and wrappers around it, and re-attaches each goto
// label whose statement was pruned to the statement of its nearest
// postdominator in the slice, per the paper's final step (a trailing
// "L: ;" when that is Exit). Kept simple statements are the original
// AST's, so printed line numbers match the original program, as in
// the paper's figure listings.
func (s *Slice) Materialize() *lang.Program {
	return lang.Project(s.Analysis.Prog, s.projectedBody(), nil)
}

// Format pretty-prints the slice with the original line numbers,
// matching the paper's figure style. The text is lang.Format of the
// program Materialize builds with lang.Project, printed by
// lang.FormatProjection straight from the original AST: the projection
// reads each statement's membership off the node set by its preorder
// ordinal (cfg.FirstStmt), so no pruned copy is built.
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
