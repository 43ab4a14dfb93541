package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
)

// Provenance mode: explain, per statement, why it is in a slice.
//
// A slice is a least fixpoint, so membership always has a finite
// derivation: a statement is a criterion seed, or some statement
// already in the slice depends on it, or one of the jump rules
// admitted it. Explain reconstructs one reason record per derivation
// edge — mostly post hoc from the final set (the dependence relation
// is static, so "t in slice and t depends on s" is checkable after
// the fact), except for the nearest-postdominator/lexical-successor
// rule, whose evidence is captured at admission time in
// Slice.JumpRules because later admissions move both "nearest in
// slice" answers.

// ReasonKind classifies one provenance record.
type ReasonKind uint8

// The reason kinds, in the order they sort within a statement.
const (
	// ReasonCriterion: the statement is a seed of the slicing
	// criterion (it uses or defines the criterion variable at the
	// criterion line, or is a reaching definition of it).
	ReasonCriterion ReasonKind = iota
	// ReasonEntry: the dummy entry predicate, in every slice by
	// construction (the paper's node 0).
	ReasonEntry
	// ReasonDataDep: the in-slice statement From is data dependent on
	// this statement.
	ReasonDataDep
	// ReasonControlDep: the in-slice statement From is control
	// dependent on this statement.
	ReasonControlDep
	// ReasonJumpRule: the jump was admitted by the paper's rule — its
	// nearest postdominator in the slice (NearestPD) differed from
	// its nearest lexical successor in the slice (NearestLS) when it
	// was examined.
	ReasonJumpRule
	// ReasonCondJump: the jump is the body of the conditional jump
	// statement whose predicate From is in the slice (the Section 3
	// adaptation: the predicate is useless without its jump).
	ReasonCondJump
	// ReasonSwitchEnclosure: the switch tag was brought in because
	// the in-slice statement From lies in one of its cases (a slice
	// is a projection; a case body cannot appear without its switch).
	ReasonSwitchEnclosure
	// ReasonJumpCandidate: the jump was admitted by the Figure 13
	// conservative rule — it is directly control dependent on the
	// in-slice predicate From (or, From being a switch tag, enclosed
	// by the in-slice switch).
	ReasonJumpCandidate
)

// String names the kind as it appears in listings and JSON.
func (k ReasonKind) String() string {
	switch k {
	case ReasonCriterion:
		return "criterion"
	case ReasonEntry:
		return "entry"
	case ReasonDataDep:
		return "data-dep"
	case ReasonControlDep:
		return "control-dep"
	case ReasonJumpRule:
		return "jump-rule"
	case ReasonCondJump:
		return "cond-jump"
	case ReasonSwitchEnclosure:
		return "switch-enclosure"
	case ReasonJumpCandidate:
		return "jump-candidate"
	}
	return fmt.Sprintf("ReasonKind(%d)", int(k))
}

// Reason is one provenance record for one slice member.
type Reason struct {
	Kind ReasonKind
	// From is the node ID of the evidence source — the in-slice
	// dependent statement (data/control dep), the conditional-jump
	// predicate, the enclosed case statement, or the candidate-rule
	// predicate. -1 when the kind carries no source (criterion,
	// entry, jump-rule).
	From int
	// NearestPD and NearestLS carry the jump rule's admission
	// evidence (node IDs; either may be the Exit node, "end of
	// program"). -1 for every other kind.
	NearestPD int
	NearestLS int
}

// Provenance maps every node of a slice to its reason records.
type Provenance struct {
	Slice *Slice
	// Reasons holds, for each node ID in the slice, at least one
	// reason, sorted by (Kind, From, NearestPD, NearestLS).
	Reasons map[int][]Reason
	// lines caches LineReasons.
	lines map[int][]string
}

// Explain computes the provenance of the slice: one or more reason
// records for every member node. For the slices this package computes
// (conventional, the Figure 7/12/13 family, and repaired dynamic
// slices) the result is complete — every member has at least one
// reason whose evidence is itself in the slice — which the property
// tests assert over the generated corpora. For slices imported from
// baseline algorithms that use different machinery (the augmented
// flowgraph of Ball–Horwitz, say) records are best-effort: the
// dependence-edge reasons still hold, but rule records may be absent.
func (s *Slice) Explain() (*Provenance, error) {
	a := s.Analysis
	set := s.Nodes
	p := &Provenance{Slice: s, Reasons: make(map[int][]Reason, set.Len())}
	add := func(node int, r Reason) {
		p.Reasons[node] = append(p.Reasons[node], r)
	}

	// Criterion seeds. The slice was produced from this criterion, so
	// resolution cannot newly fail; the error is forwarded anyway
	// rather than swallowed.
	seeds, err := a.resolveCriterion(s.Criterion)
	if err != nil {
		return nil, fmt.Errorf("core: explain %s: %w", s.Criterion, err)
	}
	for _, v := range seeds {
		if set.Has(v) {
			add(v, Reason{Kind: ReasonCriterion, From: -1, NearestPD: -1, NearestLS: -1})
		}
	}

	// The dummy entry predicate.
	if entry := a.CFG.Entry.ID; set.Has(entry) {
		add(entry, Reason{Kind: ReasonEntry, From: -1, NearestPD: -1, NearestLS: -1})
	}

	// Dependence edges out of slice members: t in slice and t
	// dependent on s justifies s. Iterating members in ascending
	// order keeps record order deterministic before the final sort.
	for t := set.NextSet(0); t >= 0; t = set.NextSet(t + 1) {
		for _, d := range a.PDG.DataDeps(t) {
			if set.Has(d) {
				add(d, Reason{Kind: ReasonDataDep, From: t, NearestPD: -1, NearestLS: -1})
			}
		}
		for _, d := range a.PDG.ControlDeps(t) {
			if set.Has(d) {
				add(d, Reason{Kind: ReasonControlDep, From: t, NearestPD: -1, NearestLS: -1})
			}
		}
	}

	// Jump admissions. JumpRules is parallel to JumpsAdded when the
	// nearest-PD/nearest-LS rule drove the additions (Figures 7 and
	// 12 and the dynamic repair); the Figure 13 algorithm admits by
	// the candidate rule instead, reconstructed post hoc below.
	if len(s.JumpRules) == len(s.JumpsAdded) {
		for i, j := range s.JumpsAdded {
			add(j, Reason{
				Kind:      ReasonJumpRule,
				From:      -1,
				NearestPD: s.JumpRules[i].NearestPD,
				NearestLS: s.JumpRules[i].NearestLS,
			})
		}
	} else {
		for _, j := range s.JumpsAdded {
			if from := a.candidateEvidence(j, set); from >= 0 {
				add(j, Reason{Kind: ReasonJumpCandidate, From: from, NearestPD: -1, NearestLS: -1})
			}
		}
	}

	// The conditional-jump adaptation (Section 3).
	for _, cj := range a.condJumps {
		if set.Has(cj.pred) && set.Has(cj.jump) {
			add(cj.jump, Reason{Kind: ReasonCondJump, From: cj.pred, NearestPD: -1, NearestLS: -1})
		}
	}

	// The switch-enclosure invariant.
	for _, id := range a.switchNodes {
		if sw := a.enclosingSwitch[id]; set.Has(id) && set.Has(sw) {
			add(sw, Reason{Kind: ReasonSwitchEnclosure, From: id, NearestPD: -1, NearestLS: -1})
		}
	}

	for _, rs := range p.Reasons {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Kind != rs[j].Kind {
				return rs[i].Kind < rs[j].Kind
			}
			if rs[i].From != rs[j].From {
				return rs[i].From < rs[j].From
			}
			if rs[i].NearestPD != rs[j].NearestPD {
				return rs[i].NearestPD < rs[j].NearestPD
			}
			return rs[i].NearestLS < rs[j].NearestLS
		})
	}
	return p, nil
}

// candidateEvidence returns an in-slice predicate (or switch tag)
// that makes jump v a Figure 13 candidate, or -1.
func (a *Analysis) candidateEvidence(v int, set interface{ Has(int) bool }) int {
	for _, pid := range a.CDG.ParentIDs(v) {
		n := a.CFG.Nodes[pid]
		if (n.Kind == cfg.KindEntry || n.Kind.IsPredicate()) && set.Has(pid) {
			return pid
		}
	}
	if sw := a.enclosingSwitch[v]; sw >= 0 && set.Has(sw) {
		return sw
	}
	return -1
}

// appendReason appends one reason rendered with source-line
// coordinates (the paper's figures speak in lines): "data-dep from 8",
// "jump-rule(nearest-PD=13, nearest-LS=8)". The Exit node renders as
// "end" (end of program).
func (p *Provenance) appendReason(b []byte, r Reason) []byte {
	switch r.Kind {
	case ReasonCriterion, ReasonEntry:
		return append(b, r.Kind.String()...)
	case ReasonJumpRule:
		b = append(b, "jump-rule(nearest-PD="...)
		b = p.appendLoc(b, r.NearestPD)
		b = append(b, ", nearest-LS="...)
		b = p.appendLoc(b, r.NearestLS)
	case ReasonCondJump, ReasonJumpCandidate:
		b = append(b, r.Kind.String()...)
		b = append(b, "(pred="...)
		b = p.appendLoc(b, r.From)
	case ReasonSwitchEnclosure:
		b = append(b, "switch-enclosure(stmt="...)
		b = p.appendLoc(b, r.From)
	default:
		b = append(b, r.Kind.String()...)
		b = append(b, " from "...)
		return p.appendLoc(b, r.From)
	}
	return append(b, ')')
}

// appendLoc appends node id as its source line, "end" for the Exit
// node, or "n<id>" for a node without a line.
func (p *Provenance) appendLoc(b []byte, id int) []byte {
	a := p.Slice.Analysis
	if id == a.CFG.Exit.ID {
		return append(b, "end"...)
	}
	if l := a.CFG.Nodes[id].Line; l > 0 {
		return strconv.AppendInt(b, int64(l), 10)
	}
	return strconv.AppendInt(append(b, 'n'), int64(id), 10)
}

// LineReasons folds the node-level records down to source lines: for
// each line of the slice, the deduplicated, deterministically ordered
// reason strings of every node on that line. This is the
// machine-checkable form the facade and the -explain flag expose.
//
// The map is built on the first call and shared by later calls and
// by Listing, so callers must not modify it.
func (p *Provenance) LineReasons() map[int][]string {
	if p.lines != nil {
		return p.lines
	}
	a := p.Slice.Analysis
	// Node IDs ascend with listing order, so per-line strings come
	// out in derivation order before dedup.
	ids := make([]int, 0, len(p.Reasons))
	total := 0
	for id, rs := range p.Reasons {
		ids = append(ids, id)
		total += len(rs)
	}
	sort.Ints(ids)
	// Render every reason into one buffer; the strings are slices of
	// a single copy of it.
	type span struct{ line, start, end int }
	var buf []byte
	spans := make([]span, 0, total)
	for _, id := range ids {
		line := a.CFG.Nodes[id].Line
		if line <= 0 {
			continue // Entry and synthesized nodes have no listing line
		}
		for _, r := range p.Reasons[id] {
			start := len(buf)
			buf = p.appendReason(buf, r)
			spans = append(spans, span{line, start, len(buf)})
		}
	}
	all := string(buf)
	strs := make([]string, 0, len(spans))
	out := map[int][]string{}
	// Consecutive spans mostly share a line; each such run becomes one
	// capacity-capped window of strs.
	for i := 0; i < len(spans); {
		line, from := spans[i].line, len(strs)
		for ; i < len(spans) && spans[i].line == line; i++ {
			str := all[spans[i].start:spans[i].end]
			if !slices.Contains(strs[from:], str) && !slices.Contains(out[line], str) {
				strs = append(strs, str)
			}
		}
		if prev, ok := out[line]; ok {
			out[line] = append(prev, strs[from:]...)
		} else {
			out[line] = strs[from:len(strs):len(strs)]
		}
	}
	p.lines = out
	return out
}

// Listing renders the annotated slice: every slice line with its
// original source text and its reason records as a trailing comment.
//
//	2: positives = 0;  // data-dep from 8
//	7: continue;  // jump-rule(nearest-PD=3, nearest-LS=8)
func (p *Provenance) Listing() string {
	texts := lang.LineTexts(p.Slice.Analysis.Prog)
	reasons := p.LineReasons()
	var b []byte
	for _, line := range p.Slice.Lines() {
		var text string
		if line < len(texts) {
			text = strings.TrimRight(texts[line], " \t")
		}
		if text == "" {
			text = "?"
		}
		b = lang.AppendLineNumber(b, line)
		b = append(b, text...)
		for i, r := range reasons[line] {
			if i == 0 {
				b = append(b, "  // "...)
			} else {
				b = append(b, "; "...)
			}
			b = append(b, r...)
		}
		b = append(b, '\n')
	}
	return string(b)
}
