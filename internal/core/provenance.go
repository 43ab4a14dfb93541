package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
	"jumpslice/internal/sdg"
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
//
// Both slicers explain into the same table. An intraprocedural slice
// keys it by flowgraph node; an interprocedural slice keys it by SDG
// vertex, with the same kinds for the edges a procedure's own tables
// encode and four more for the edges between procedures.

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
	// ReasonCall: the call statement is in because the entry of its
	// callee, From, is (an SDG call edge; the callee's entry renders
	// as the procedure's declaration line).
	ReasonCall
	// ReasonParamIn: the call's actual-in vertex passes the argument
	// that the in-slice formal-in From receives (an SDG param-in edge).
	ReasonParamIn
	// ReasonParamOut: the procedure's formal-out vertex returns the
	// value that the in-slice actual-out From copies back (an SDG
	// param-out edge).
	ReasonParamOut
	// ReasonSummary: the actual-in vertex reaches the in-slice
	// actual-out From of the same call through the callee (an SDG
	// summary edge: a dependence along a same-level path).
	ReasonSummary
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
	case ReasonCall:
		return "call"
	case ReasonParamIn:
		return "param-in"
	case ReasonParamOut:
		return "param-out"
	case ReasonSummary:
		return "summary"
	}
	return fmt.Sprintf("ReasonKind(%d)", int(k))
}

// Reason is one provenance record for one slice member.
type Reason struct {
	Kind ReasonKind
	// From is the node ID of the evidence source — the in-slice
	// dependent statement (data/control dep), the conditional-jump
	// predicate, the enclosed case statement, the candidate-rule
	// predicate, or the in-slice end of an SDG edge. -1 when the kind
	// carries no source (criterion, entry, jump-rule).
	From int
	// NearestPD and NearestLS carry the jump rule's admission
	// evidence (node IDs; either may be the Exit node, "end of
	// program"). -1 for every other kind.
	NearestPD int
	NearestLS int
}

// Provenance holds the reason records of a slice's members in one
// flat table ordered by node: the records of node n are Reasons(n),
// sorted by (Kind, From, NearestPD, NearestLS).
type Provenance struct {
	// Slice is the explained intraprocedural slice, whose flowgraph
	// nodes key the table; Inter is the explained interprocedural
	// slice, whose SDG vertices key it. Exactly one is set.
	Slice *Slice
	Inter *InterSlice

	table
	// lines caches LineReasons.
	lines map[int][]string
}

// Reasons returns the records of node id; none for a node outside the
// slice. Shared; do not modify.
func (p *Provenance) Reasons(id int) []Reason { return p.recs[p.start[id]:p.start[id+1]] }

// Len returns the number of node IDs the table covers: every ID below
// it may be passed to Reasons.
func (p *Provenance) Len() int { return len(p.start) - 1 }

// table is the record table: node n's records are
// recs[start[n]:start[n+1]]. A slicer builds it from one emitting walk,
// run twice: after newTable, the first run counts each node's records,
// sum turns the counts into offsets, the second run places each record
// at its node's cursor, and done restores the offsets. The walk emits
// kind by kind, and within a kind visits the evidence in ascending
// order, so each node's run comes out sorted without a per-node sort.
type table struct {
	recs  []Reason
	start []int32
	fill  bool
}

func newTable(nodes int) table { return table{start: make([]int32, nodes+1)} }

func (t *table) add(node int, r Reason) {
	if !t.fill {
		t.start[node+1]++
		return
	}
	t.recs[t.start[node]] = r
	t.start[node]++
}

// sum ends the counting run: start[n] becomes node n's first slot.
func (t *table) sum() {
	for i := 1; i < len(t.start); i++ {
		t.start[i] += t.start[i-1]
	}
	t.recs, t.fill = make([]Reason, t.start[len(t.start)-1]), true
}

// done ends the filling run, which advanced each start[n] to node n's
// end, that is to start[n+1]; shifting restores the offsets.
func (t *table) done() {
	copy(t.start[1:], t.start[:len(t.start)-1])
	t.start[0] = 0
}

// dep is the record of an edge of the slicing relation out of the
// in-slice node from.
func dep(k ReasonKind, from int) Reason {
	return Reason{Kind: k, From: from, NearestPD: -1, NearestLS: -1}
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
	// The slice was produced from this criterion, so resolution cannot
	// newly fail; the error is forwarded anyway rather than swallowed.
	seeds, err := s.Analysis.resolveCriterion(s.Criterion)
	if err != nil {
		return nil, fmt.Errorf("core: explain %s: %w", s.Criterion, err)
	}
	p := &Provenance{Slice: s, table: newTable(s.Analysis.CFG.NumNodes())}
	s.emitReasons(&p.table, seeds)
	p.sum()
	s.emitReasons(&p.table, seeds)
	p.done()
	return p, nil
}

// emitReasons emits every record of the slice into t, kind by kind.
func (s *Slice) emitReasons(t *table, seeds []int) {
	a, set := s.Analysis, s.Nodes
	for _, v := range seeds {
		if set.Has(v) {
			t.add(v, dep(ReasonCriterion, -1))
		}
	}
	// The dummy entry predicate.
	if entry := a.CFG.Entry.ID; set.Has(entry) {
		t.add(entry, dep(ReasonEntry, -1))
	}
	// Edges of the slicing relation out of slice members: m in slice
	// and m dependent on d — or bringing d by the conditional-jump
	// adaptation (Section 3) or switch enclosure — justifies d.
	for m := set.NextSet(0); m >= 0; m = set.NextSet(m + 1) {
		for _, d := range a.PDG.DataDeps(m) {
			if set.Has(d) {
				t.add(d, dep(ReasonDataDep, m))
			}
		}
	}
	for m := set.NextSet(0); m >= 0; m = set.NextSet(m + 1) {
		for _, d := range a.PDG.ControlDeps(m) {
			if set.Has(d) {
				t.add(d, dep(ReasonControlDep, m))
			}
		}
	}
	// Jump admissions. JumpRules is parallel to JumpsAdded when the
	// nearest-PD/nearest-LS rule drove the additions (Figures 7 and
	// 12 and the dynamic repair); the Figure 13 algorithm admits by
	// the candidate rule instead, reconstructed post hoc below. A jump
	// is admitted once, so it carries one such record.
	rules := len(s.JumpRules) == len(s.JumpsAdded)
	if rules {
		for i, j := range s.JumpsAdded {
			r := s.JumpRules[i]
			t.add(j, Reason{Kind: ReasonJumpRule, From: -1, NearestPD: r.NearestPD, NearestLS: r.NearestLS})
		}
	}
	for m := set.NextSet(0); m >= 0; m = set.NextSet(m + 1) {
		if j := a.condJumpOf[m]; j >= 0 && set.Has(j) {
			t.add(j, dep(ReasonCondJump, m))
		}
	}
	for m := set.NextSet(0); m >= 0; m = set.NextSet(m + 1) {
		if sw := a.enclosingSwitch[m]; sw >= 0 && set.Has(sw) {
			t.add(sw, dep(ReasonSwitchEnclosure, m))
		}
	}
	if !rules {
		for _, j := range s.JumpsAdded {
			if from := a.candidateEvidence(j, set); from >= 0 {
				t.add(j, dep(ReasonJumpCandidate, from))
			}
		}
	}
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

// appendLoc appends node id as its source line, "end" for an Exit
// node, or "n<id>" for a node without a line.
func (p *Provenance) appendLoc(b []byte, id int) []byte {
	line, end := p.loc(id)
	if end {
		return append(b, "end"...)
	}
	if line > 0 {
		return strconv.AppendInt(b, int64(line), 10)
	}
	return strconv.AppendInt(append(b, 'n'), int64(id), 10)
}

// key returns the rendered key of reason r on line: the locations of
// exactly the evidence appendReason prints for r's kind.
func (p *Provenance) key(line int, r Reason) reasonKey {
	k := reasonKey{line: line, kind: r.Kind}
	switch r.Kind {
	case ReasonCriterion, ReasonEntry:
	case ReasonJumpRule:
		k.e1, k.e2 = p.locKey(r.NearestPD), p.locKey(r.NearestLS)
	default:
		k.e1 = p.locKey(r.From)
	}
	return k
}

// locKey encodes what appendLoc prints for node id as a nonzero int:
// the line, -1 for "end", or -2-id for "n<id>".
func (p *Provenance) locKey(id int) int {
	line, end := p.loc(id)
	switch {
	case end:
		return -1
	case line > 0:
		return line
	}
	return -2 - id
}

// loc returns node id's source line (0 for none) and whether it is an
// Exit node: a flowgraph node's own line, or an SDG vertex's line
// (sdg.Graph.VertLine).
func (p *Provenance) loc(id int) (line int, end bool) {
	if p.Slice != nil {
		g := p.Slice.Analysis.CFG
		return g.Nodes[id].Line, id == g.Exit.ID
	}
	g := p.Inter.Set.SDG
	v := g.Vert(id)
	return g.VertLine(id), v.Kind == sdg.VertStmt && v.Node == g.Procs[v.Proc].CFG.Exit.ID
}

// scratch is the reusable working memory of LineReasons and Listing:
// both render into a pooled buffer and copy out only the finished
// text, so their allocations do not grow with the records.
type scratch struct {
	buf   []byte
	spans []reasonSpan
	seen  keySet
}

// reasonSpan locates one rendered reason of a line in scratch.buf.
type reasonSpan struct{ line, start, end int }

// reasonKey identifies the text a reason renders to on a line: its
// kind and the locations (locKey) of the evidence that kind prints.
// Two reasons on one line render the same text exactly when their
// keys are equal.
type reasonKey struct {
	line, e1, e2 int
	kind         ReasonKind
}

// keySet is a linear-probing set of reason keys: slots holds indexes
// into keys plus one, zero marking a free slot.
type keySet struct {
	keys  []reasonKey
	slots []int32
	shift uint // 64 - log2(len(slots))
}

// reset empties the set and sizes it for up to n keys at most half
// full.
func (s *keySet) reset(n int) {
	size, shift := 16, uint(60)
	for size < 2*n {
		size, shift = size<<1, shift-1
	}
	if cap(s.slots) < size {
		s.slots = make([]int32, size)
	} else {
		s.slots = s.slots[:size]
		clear(s.slots)
	}
	s.keys, s.shift = s.keys[:0], shift
}

// add inserts k and reports whether it was not yet present.
func (s *keySet) add(k reasonKey) bool {
	h := uint64(k.line)*0x9e3779b97f4a7c15 ^ uint64(k.e1)*0xbf58476d1ce4e5b9 ^
		uint64(k.e2)*0x94d049bb133111eb ^ uint64(k.kind)
	mask := len(s.slots) - 1
	for i := int((h * 0x9e3779b97f4a7c15) >> s.shift); ; i = (i + 1) & mask {
		j := s.slots[i]
		if j == 0 {
			s.keys = append(s.keys, k)
			s.slots[i] = int32(len(s.keys))
			return true
		}
		if s.keys[j-1] == k {
			return false
		}
	}
}

var scratches = sync.Pool{New: func() any { return &scratch{buf: make([]byte, 0, 64<<10)} }}

// maxPooledScratch bounds the buffers returned to the pool, so one
// huge slice does not pin its buffer's memory.
const maxPooledScratch = 1 << 20

func putScratch(sc *scratch) {
	if cap(sc.buf) <= maxPooledScratch {
		sc.buf, sc.spans = sc.buf[:0], sc.spans[:0]
		scratches.Put(sc)
	}
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
	// Render every reason into one buffer, in node order; the strings
	// are slices of a single copy of it.
	sc := scratches.Get().(*scratch)
	defer putScratch(sc)
	buf, spans := sc.buf, sc.spans
	sc.seen.reset(len(p.recs))
	lines := 0
	for id := 0; id < p.Len(); id++ {
		rs := p.Reasons(id)
		if len(rs) == 0 {
			continue
		}
		line, _ := p.loc(id)
		if line <= 0 {
			continue // Entry and synthesized nodes have no listing line
		}
		if len(spans) == 0 || spans[len(spans)-1].line != line {
			lines++
		}
		for _, r := range rs {
			if !sc.seen.add(p.key(line, r)) {
				continue // the line already carries this text
			}
			start := len(buf)
			buf = p.appendReason(buf, r)
			spans = append(spans, reasonSpan{line, start, len(buf)})
		}
	}
	sc.buf, sc.spans = buf, spans
	all := string(buf)
	strs := make([]string, 0, len(spans))
	out := make(map[int][]string, lines)
	// Consecutive spans mostly share a line; each such run becomes one
	// capacity-capped window of strs.
	for i := 0; i < len(spans); {
		line, from := spans[i].line, len(strs)
		for ; i < len(spans) && spans[i].line == line; i++ {
			strs = append(strs, all[spans[i].start:spans[i].end])
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

// Listing renders the annotated slice: every line of a slice member
// with its original source text and its reason records as a trailing
// comment. An interprocedural listing also carries the declaration
// line of each procedure whose entry or formals are in the slice.
//
//	2: positives = 0;  // data-dep from 8
//	7: continue;  // jump-rule(nearest-PD=3, nearest-LS=8)
func (p *Provenance) Listing() string {
	var prog *lang.Program
	var lines []int
	if p.Slice != nil {
		prog, lines = p.Slice.Analysis.Prog, p.Slice.Lines()
	} else {
		prog, lines = p.Inter.Set.Prog, p.Inter.memberLines()
	}
	texts := lang.LineTexts(prog)
	reasons := p.LineReasons()
	sc := scratches.Get().(*scratch)
	defer putScratch(sc)
	b := sc.buf
	for _, line := range lines {
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
	sc.buf = b
	return string(b)
}
