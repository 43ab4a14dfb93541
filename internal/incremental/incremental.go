// Package incremental compares two versions of a program at the
// statement level and answers the questions the incremental
// re-analysis engine in internal/core asks: did the flowgraph shape
// survive the edit, which statements changed, and did any of them
// change the variable it defines? It also provides SpliceLine, a
// single-statement reparse-and-splice that turns a one-line text edit
// into a new AST without paying a full reparse — the cost that would
// otherwise dominate an editor-speed re-slice.
//
// The differ is deliberately conservative: its positive answers
// ("same shape", "only these statements changed") are derived from a
// lockstep structural walk of both syntax trees, never from
// heuristics, so a reuse engine acting on them cannot produce results
// that differ from a cold analysis. Anything the walk cannot prove
// identical in shape is reported as a mismatch, which callers treat
// as "run the full pipeline".
package incremental

import (
	"fmt"
	"strings"

	"jumpslice/internal/lang"
)

// Op is the kind of a statement-level edit.
type Op int

const (
	// OpReplace substitutes one statement for another at the same
	// structural position.
	OpReplace Op = iota
	// OpRelabel changes only the label set attached to a statement.
	OpRelabel
	// OpInsert adds a statement not present in the old program.
	OpInsert
	// OpDelete removes a statement of the old program.
	OpDelete
)

// String returns the lower-case name of the op.
func (o Op) String() string {
	switch o {
	case OpReplace:
		return "replace"
	case OpRelabel:
		return "relabel"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return "unknown"
}

// Edit is one entry of the statement-level edit script. Line is the
// statement's source line in the new program (for deletes, in the old
// program); Text is a one-line rendering of the statement.
type Edit struct {
	Op   Op     `json:"op"`
	Line int    `json:"line"`
	Text string `json:"text"`
}

// Replacement pairs an old statement with the same-shape new
// statement that replaced it. Old and New are the node-bearing
// statements (label wrappers stripped), so cfg.Graph.NodeFor accepts
// them directly. DefChanged reports that the variable the statement
// defines changed — the distinction that decides whether reaching
// definitions must be recomputed.
type Replacement struct {
	Old, New   lang.Stmt
	DefChanged bool
}

// Script is the result of diffing two programs.
type Script struct {
	// Identical reports that the walk found no difference at all:
	// same shape, no expression or definition changed anywhere.
	// (Statement positions are not compared; an identical script may
	// still carry different line numbers.)
	Identical bool
	// SameShape reports that both programs have the same statement
	// structure: same statement kinds in the same nesting, same
	// labels, same goto targets, same case values. When true, the
	// flowgraphs built from the two programs are structurally
	// identical node for node, and Replaced lists every pair that
	// differs.
	SameShape bool
	// Replaced lists, when SameShape, the statement pairs whose
	// expressions or defined variable differ.
	Replaced []Replacement
	// Mismatch is a human-readable reason SameShape is false, or "".
	Mismatch string
	// Edits is a statement-level edit script for reporting: replace /
	// relabel for paired statements, insert / delete for the rest.
	// It is derived from fingerprint anchoring and is informational —
	// reuse decisions are made from SameShape and Replaced only.
	Edits []Edit
}

// Diff structurally compares two programs statement by statement.
func Diff(old, new *lang.Program) *Script {
	d := &differ{}
	sc := &Script{SameShape: d.stmts(old.Body, new.Body)}
	if sc.SameShape {
		sc.Replaced = d.replaced
		sc.Identical = len(d.replaced) == 0
		// Same shape means no statement was inserted, deleted or
		// relabeled, so the edit script is exactly the replacements —
		// no need for the fingerprint-anchored pass (which would
		// re-hash every statement and dominate an editor-speed edit).
		for _, r := range d.replaced {
			sc.Edits = append(sc.Edits, Edit{
				Op:   OpReplace,
				Line: r.New.Pos().Line,
				Text: lang.StmtString(r.New),
			})
		}
	} else {
		sc.Mismatch = d.mismatch
		sc.Edits = editScript(old, new)
	}
	return sc
}

// differ carries the state of the lockstep shape walk.
type differ struct {
	replaced []Replacement
	mismatch string
}

func (d *differ) fail(format string, args ...any) bool {
	if d.mismatch == "" {
		d.mismatch = fmt.Sprintf(format, args...)
	}
	return false
}

func (d *differ) stmts(old, new []lang.Stmt) bool {
	if len(old) != len(new) {
		return d.fail("statement sequence length %d vs %d", len(old), len(new))
	}
	for i := range old {
		if !d.stmt(old[i], new[i]) {
			return false
		}
	}
	return true
}

// stmt compares one statement position of both programs. Labels are
// part of the shape: a label rename retargets gotos, so it cannot be
// treated as a same-shape replacement.
func (d *differ) stmt(o, n lang.Stmt) bool {
	if o == n {
		// Pointer-identical subtrees (SpliceLine shares everything but
		// the edited spine with the donor program) are trivially equal.
		return true
	}
	oi, olabels := unwrap(o)
	ni, nlabels := unwrap(n)
	if !equalStrings(olabels, nlabels) {
		return d.fail("line %d: labels %v vs %v", ni.Pos().Line, olabels, nlabels)
	}
	switch os := oi.(type) {
	case *lang.AssignStmt:
		ns, ok := ni.(*lang.AssignStmt)
		if !ok {
			return d.failKind(oi, ni)
		}
		if os.Name != ns.Name {
			d.replace(oi, ni, true)
		} else if !ExprEqual(os.Value, ns.Value) {
			d.replace(oi, ni, false)
		}
	case *lang.ReadStmt:
		ns, ok := ni.(*lang.ReadStmt)
		if !ok {
			return d.failKind(oi, ni)
		}
		if os.Name != ns.Name {
			d.replace(oi, ni, true)
		}
	case *lang.WriteStmt:
		ns, ok := ni.(*lang.WriteStmt)
		if !ok {
			return d.failKind(oi, ni)
		}
		if !ExprEqual(os.Value, ns.Value) {
			d.replace(oi, ni, false)
		}
	case *lang.ReturnStmt:
		ns, ok := ni.(*lang.ReturnStmt)
		if !ok {
			return d.failKind(oi, ni)
		}
		if !ExprEqual(os.Value, ns.Value) {
			d.replace(oi, ni, false)
		}
	case *lang.GotoStmt:
		ns, ok := ni.(*lang.GotoStmt)
		if !ok {
			return d.failKind(oi, ni)
		}
		if os.Label != ns.Label {
			return d.fail("line %d: goto target %s vs %s", ni.Pos().Line, os.Label, ns.Label)
		}
	case *lang.BreakStmt:
		if _, ok := ni.(*lang.BreakStmt); !ok {
			return d.failKind(oi, ni)
		}
	case *lang.ContinueStmt:
		if _, ok := ni.(*lang.ContinueStmt); !ok {
			return d.failKind(oi, ni)
		}
	case *lang.EmptyStmt:
		if _, ok := ni.(*lang.EmptyStmt); !ok {
			return d.failKind(oi, ni)
		}
	case *lang.BlockStmt:
		ns, ok := ni.(*lang.BlockStmt)
		if !ok {
			return d.failKind(oi, ni)
		}
		return d.stmts(os.List, ns.List)
	case *lang.IfStmt:
		ns, ok := ni.(*lang.IfStmt)
		if !ok {
			return d.failKind(oi, ni)
		}
		if (os.Else == nil) != (ns.Else == nil) {
			return d.fail("line %d: else branch added or removed", ni.Pos().Line)
		}
		if !ExprEqual(os.Cond, ns.Cond) {
			d.replace(oi, ni, false)
		}
		if !d.stmt(os.Then, ns.Then) {
			return false
		}
		if os.Else != nil && !d.stmt(os.Else, ns.Else) {
			return false
		}
	case *lang.WhileStmt:
		ns, ok := ni.(*lang.WhileStmt)
		if !ok {
			return d.failKind(oi, ni)
		}
		if !ExprEqual(os.Cond, ns.Cond) {
			d.replace(oi, ni, false)
		}
		return d.stmt(os.Body, ns.Body)
	case *lang.SwitchStmt:
		ns, ok := ni.(*lang.SwitchStmt)
		if !ok {
			return d.failKind(oi, ni)
		}
		if len(os.Cases) != len(ns.Cases) {
			return d.fail("line %d: case count %d vs %d", ni.Pos().Line, len(os.Cases), len(ns.Cases))
		}
		for i := range os.Cases {
			oc, nc := os.Cases[i], ns.Cases[i]
			if oc.IsDefault != nc.IsDefault || !equalInt64s(oc.Values, nc.Values) {
				return d.fail("line %d: case arm %d labels differ", ni.Pos().Line, i)
			}
		}
		if !ExprEqual(os.Tag, ns.Tag) {
			d.replace(oi, ni, false)
		}
		for i := range os.Cases {
			if !d.stmts(os.Cases[i].Body, ns.Cases[i].Body) {
				return false
			}
		}
	default:
		return d.fail("line %d: unhandled statement %T", oi.Pos().Line, oi)
	}
	return true
}

func (d *differ) failKind(o, n lang.Stmt) bool {
	return d.fail("line %d: statement kind %T vs %T", n.Pos().Line, o, n)
}

func (d *differ) replace(o, n lang.Stmt, defChanged bool) {
	d.replaced = append(d.replaced, Replacement{Old: o, New: n, DefChanged: defChanged})
}

// unwrap strips LabeledStmt wrappers, returning the inner statement
// and the label chain in wrapper order.
func unwrap(s lang.Stmt) (lang.Stmt, []string) {
	var labels []string
	for {
		l, ok := s.(*lang.LabeledStmt)
		if !ok {
			return s, labels
		}
		labels = append(labels, l.Label)
		s = l.Stmt
	}
}

// ExprEqual reports whether two expressions are structurally equal,
// ignoring source positions. A nil expression equals only nil.
func ExprEqual(a, b lang.Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	switch a := a.(type) {
	case *lang.IntLit:
		b, ok := b.(*lang.IntLit)
		return ok && a.Value == b.Value
	case *lang.Ident:
		b, ok := b.(*lang.Ident)
		return ok && a.Name == b.Name
	case *lang.CallExpr:
		b, ok := b.(*lang.CallExpr)
		if !ok || a.Name != b.Name || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !ExprEqual(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	case *lang.UnaryExpr:
		b, ok := b.(*lang.UnaryExpr)
		return ok && a.Op == b.Op && ExprEqual(a.X, b.X)
	case *lang.BinaryExpr:
		b, ok := b.(*lang.BinaryExpr)
		return ok && a.Op == b.Op && ExprEqual(a.X, b.X) && ExprEqual(a.Y, b.Y)
	}
	return false
}

// ---------------------------------------------------------------------
// Statement fingerprints and the reporting edit script.

// fnv64 is an FNV-1a accumulator over the structural content of a
// statement, excluding source positions.
type fnv64 uint64

const (
	fnvOffset fnv64 = 14695981039346656037
	fnvPrime  fnv64 = 1099511628211
)

func (h *fnv64) byte(b byte) { *h = (*h ^ fnv64(b)) * fnvPrime }

func (h *fnv64) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0)
}

func (h *fnv64) i64(v int64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *fnv64) expr(e lang.Expr) {
	switch e := e.(type) {
	case nil:
		h.byte('n')
	case *lang.IntLit:
		h.byte('i')
		h.i64(e.Value)
	case *lang.Ident:
		h.byte('v')
		h.str(e.Name)
	case *lang.CallExpr:
		h.byte('c')
		h.str(e.Name)
		h.i64(int64(len(e.Args)))
		for _, a := range e.Args {
			h.expr(a)
		}
	case *lang.UnaryExpr:
		h.byte('u')
		h.str(e.Op)
		h.expr(e.X)
	case *lang.BinaryExpr:
		h.byte('b')
		h.str(e.Op)
		h.expr(e.X)
		h.expr(e.Y)
	}
}

// header hashes the shallow content of a node-bearing statement: its
// kind, its defined variable or jump target, its header expression,
// and for switches the case arms — but not nested bodies, which
// appear as their own flattened entries.
func (h *fnv64) header(s lang.Stmt) {
	switch s := s.(type) {
	case *lang.AssignStmt:
		h.byte('=')
		h.str(s.Name)
		h.expr(s.Value)
	case *lang.ReadStmt:
		h.byte('r')
		h.str(s.Name)
	case *lang.WriteStmt:
		h.byte('w')
		h.expr(s.Value)
	case *lang.IfStmt:
		h.byte('I')
		h.expr(s.Cond)
		if s.Else != nil {
			h.byte('e')
		}
	case *lang.WhileStmt:
		h.byte('W')
		h.expr(s.Cond)
	case *lang.SwitchStmt:
		h.byte('S')
		h.expr(s.Tag)
		for _, c := range s.Cases {
			if c.IsDefault {
				h.byte('d')
			}
			for _, v := range c.Values {
				h.i64(v)
			}
			h.byte(';')
		}
	case *lang.GotoStmt:
		h.byte('g')
		h.str(s.Label)
	case *lang.BreakStmt:
		h.byte('B')
	case *lang.ContinueStmt:
		h.byte('C')
	case *lang.ReturnStmt:
		h.byte('R')
		h.expr(s.Value)
	}
}

// flat is one node-bearing statement of the flattened program.
type flat struct {
	stmt lang.Stmt
	line int
	full uint64 // fingerprint including labels
	bare uint64 // fingerprint excluding labels
}

func flatten(p *lang.Program) []flat {
	var out []flat
	var visit func(s lang.Stmt, labels []string)
	visit = func(s lang.Stmt, labels []string) {
		switch s := s.(type) {
		case nil, *lang.EmptyStmt:
		case *lang.LabeledStmt:
			visit(s.Stmt, append(labels, s.Label))
		case *lang.BlockStmt:
			for _, t := range s.List {
				visit(t, nil)
			}
		case *lang.IfStmt:
			out = append(out, newFlat(s, labels))
			visit(s.Then, nil)
			visit(s.Else, nil)
		case *lang.WhileStmt:
			out = append(out, newFlat(s, labels))
			visit(s.Body, nil)
		case *lang.SwitchStmt:
			out = append(out, newFlat(s, labels))
			for _, c := range s.Cases {
				for _, t := range c.Body {
					visit(t, nil)
				}
			}
		default:
			out = append(out, newFlat(s, labels))
		}
	}
	for _, s := range p.Body {
		visit(s, nil)
	}
	return out
}

func newFlat(s lang.Stmt, labels []string) flat {
	full := fnvOffset
	for _, l := range labels {
		full.byte('L')
		full.str(l)
	}
	bare := fnvOffset
	full.header(s)
	bare.header(s)
	return flat{stmt: s, line: s.Pos().Line, full: uint64(full), bare: uint64(bare)}
}

// editScript derives the reporting edit script by fingerprint
// anchoring: trim the common prefix and suffix of the flattened
// statement lists, then pair the middles positionally.
func editScript(old, new *lang.Program) []Edit {
	of, nf := flatten(old), flatten(new)
	i := 0
	for i < len(of) && i < len(nf) && of[i].full == nf[i].full {
		i++
	}
	j := 0
	for j < len(of)-i && j < len(nf)-i && of[len(of)-1-j].full == nf[len(nf)-1-j].full {
		j++
	}
	om, nm := of[i:len(of)-j], nf[i:len(nf)-j]
	var edits []Edit
	k := 0
	for ; k < len(om) && k < len(nm); k++ {
		if om[k].full == nm[k].full {
			// Unchanged statement trapped between two edits.
			continue
		}
		op := OpReplace
		if om[k].bare == nm[k].bare {
			op = OpRelabel
		}
		edits = append(edits, Edit{Op: op, Line: nm[k].line, Text: lang.StmtString(nm[k].stmt)})
	}
	for _, f := range om[min(k, len(om)):] {
		edits = append(edits, Edit{Op: OpDelete, Line: f.line, Text: lang.StmtString(f.stmt)})
	}
	for _, f := range nm[min(k, len(nm)):] {
		edits = append(edits, Edit{Op: OpInsert, Line: f.line, Text: lang.StmtString(f.stmt)})
	}
	return edits
}

// ---------------------------------------------------------------------
// Single-line splice.

// SpliceLine parses text as a single simple statement and splices it
// into p at the statement occupying the given source line, returning
// the new program. It is the fast path for one-line edits: only the
// replacement statement is parsed, and the rest of the tree is shared
// with p (containers along the path to the target are copied, so p is
// never mutated).
//
// The result is structurally identical to reparsing the whole edited
// source. SpliceLine returns ok=false — and callers fall back to a
// full reparse — whenever that equivalence cannot be guaranteed
// cheaply: p declares procedures (the splice rebuilds only the main
// body), the text spans lines, is not exactly one unlabeled simple
// statement (gotos fail their standalone parse because the label is
// out of scope, which conveniently routes label-sensitive edits to
// the fallback), the line does not hold exactly one simple statement
// of p, or anything else shares that line.
//
// Column positions inside the spliced statement are those of the
// standalone parse; nothing downstream of parsing reads columns, so
// this is unobservable.
func SpliceLine(p *lang.Program, line int, text string) (*lang.Program, bool) {
	if len(p.Procs) > 0 || strings.ContainsAny(text, "\n\r") {
		return nil, false
	}
	np, err := lang.Parse(text)
	if err != nil || len(np.Body) != 1 {
		return nil, false
	}
	repl := np.Body[0]
	switch repl.(type) {
	case *lang.AssignStmt, *lang.ReadStmt, *lang.WriteStmt,
		*lang.BreakStmt, *lang.ContinueStmt, *lang.ReturnStmt, *lang.EmptyStmt:
	default:
		return nil, false
	}
	target, ok := simpleStmtAtLine(p, line)
	if !ok {
		return nil, false
	}
	setStmtLine(repl, line)
	body, ok := replaceInList(p.Body, target, repl)
	if !ok {
		return nil, false
	}
	q := &lang.Program{Body: body, Labels: make(map[string]*lang.LabeledStmt, len(p.Labels))}
	for k, v := range p.Labels {
		q.Labels[k] = v
	}
	// Only the copied spine can hold label wrappers the map must be
	// re-pointed at; everything pointer-shared with p keeps its entry.
	fixLabels(p.Body, body, q.Labels)
	return q, true
}

// fixLabels re-points label-map entries at wrapper copies made by the
// splice. It walks old and new in lockstep and descends only where
// the pointers differ — the copied spine — so its cost is the spine,
// not the program.
func fixLabels(old, new []lang.Stmt, labels map[string]*lang.LabeledStmt) {
	for i := range new {
		fixLabelsStmt(old[i], new[i], labels)
	}
}

func fixLabelsStmt(o, n lang.Stmt, labels map[string]*lang.LabeledStmt) {
	if o == n || n == nil {
		return
	}
	switch n := n.(type) {
	case *lang.LabeledStmt:
		labels[n.Label] = n
		if ol, ok := o.(*lang.LabeledStmt); ok {
			fixLabelsStmt(ol.Stmt, n.Stmt, labels)
		}
	case *lang.BlockStmt:
		if ob, ok := o.(*lang.BlockStmt); ok && len(ob.List) == len(n.List) {
			fixLabels(ob.List, n.List, labels)
		}
	case *lang.IfStmt:
		if oi, ok := o.(*lang.IfStmt); ok {
			fixLabelsStmt(oi.Then, n.Then, labels)
			fixLabelsStmt(oi.Else, n.Else, labels)
		}
	case *lang.WhileStmt:
		if ow, ok := o.(*lang.WhileStmt); ok {
			fixLabelsStmt(ow.Body, n.Body, labels)
		}
	case *lang.SwitchStmt:
		if os, ok := o.(*lang.SwitchStmt); ok && len(os.Cases) == len(n.Cases) {
			for i, cc := range n.Cases {
				if len(os.Cases[i].Body) == len(cc.Body) {
					fixLabels(os.Cases[i].Body, cc.Body, labels)
				}
			}
		}
	}
}

// simpleStmtAtLine finds the unique simple statement on the given
// line. It demands that every statement node positioned on that line
// is either the target or one of its label wrappers, and that the
// target's expressions sit on the same line — together these
// guarantee a textual replacement of the line touches exactly this
// statement.
func simpleStmtAtLine(p *lang.Program, line int) (lang.Stmt, bool) {
	var hits []lang.Stmt
	collectLine(p.Body, line, &hits)
	if len(hits) == 0 {
		return nil, false
	}
	// Walk order visits wrappers before their inner statement, so a
	// legal hit list is one label chain ending at the target.
	for i := 0; i+1 < len(hits); i++ {
		l, ok := hits[i].(*lang.LabeledStmt)
		if !ok || l.Stmt != hits[i+1] {
			return nil, false
		}
	}
	s := hits[len(hits)-1]
	switch s := s.(type) {
	case *lang.AssignStmt:
		if !exprOnLine(s.Value, line) {
			return nil, false
		}
	case *lang.WriteStmt:
		if !exprOnLine(s.Value, line) {
			return nil, false
		}
	case *lang.ReturnStmt:
		if !exprOnLine(s.Value, line) {
			return nil, false
		}
	case *lang.ReadStmt, *lang.GotoStmt, *lang.BreakStmt, *lang.ContinueStmt, *lang.EmptyStmt:
	default:
		return nil, false
	}
	return s, true
}

func exprOnLine(e lang.Expr, line int) bool {
	switch e := e.(type) {
	case nil:
		return true
	case *lang.CallExpr:
		if e.P.Line != line {
			return false
		}
		for _, a := range e.Args {
			if !exprOnLine(a, line) {
				return false
			}
		}
		return true
	case *lang.UnaryExpr:
		return e.P.Line == line && exprOnLine(e.X, line)
	case *lang.BinaryExpr:
		return e.P.Line == line && exprOnLine(e.X, line) && exprOnLine(e.Y, line)
	default:
		return e.Pos().Line == line
	}
}

// setStmtLine repositions a freshly parsed simple statement (and its
// expressions) onto the target line.
func setStmtLine(s lang.Stmt, line int) {
	switch s := s.(type) {
	case *lang.AssignStmt:
		s.P.Line = line
		setExprLine(s.Value, line)
	case *lang.ReadStmt:
		s.P.Line = line
	case *lang.WriteStmt:
		s.P.Line = line
		setExprLine(s.Value, line)
	case *lang.ReturnStmt:
		s.P.Line = line
		setExprLine(s.Value, line)
	case *lang.BreakStmt:
		s.P.Line = line
	case *lang.ContinueStmt:
		s.P.Line = line
	case *lang.EmptyStmt:
		s.P.Line = line
	case *lang.GotoStmt:
		s.P.Line = line
	}
}

func setExprLine(e lang.Expr, line int) {
	switch e := e.(type) {
	case nil:
	case *lang.IntLit:
		e.P.Line = line
	case *lang.Ident:
		e.P.Line = line
	case *lang.CallExpr:
		e.P.Line = line
		for _, a := range e.Args {
			setExprLine(a, line)
		}
	case *lang.UnaryExpr:
		e.P.Line = line
		setExprLine(e.X, line)
	case *lang.BinaryExpr:
		e.P.Line = line
		setExprLine(e.X, line)
		setExprLine(e.Y, line)
	}
}

// collectLine appends, in lexical walk order, every statement node
// positioned on line. Statement positions are nondecreasing in token
// order, which is exploited twice: a sibling's whole subtree is
// skipped when the next sibling still starts before the line (STRICT
// — a next sibling on the line itself means the subtree can also
// reach it), and the search stops outright at the first statement
// past the line. The cost is the paths that straddle the line, not
// the program. Returns false once the line has been passed.
func collectLine(list []lang.Stmt, line int, hits *[]lang.Stmt) bool {
	for i, s := range list {
		if s == nil {
			continue
		}
		if i+1 < len(list) {
			if next := list[i+1]; next != nil && next.Pos().Line < line {
				continue // everything inside s ends before the line
			}
		}
		if !collectLineStmt(s, line, hits) {
			return false
		}
	}
	return true
}

func collectLineStmt(s lang.Stmt, line int, hits *[]lang.Stmt) bool {
	if s == nil {
		return true
	}
	if s.Pos().Line > line {
		return false
	}
	if s.Pos().Line == line {
		*hits = append(*hits, s)
	}
	switch s := s.(type) {
	case *lang.IfStmt:
		// The then-branch ends before the else-branch begins.
		if s.Else == nil || s.Else.Pos().Line >= line {
			if !collectLineStmt(s.Then, line, hits) {
				return false
			}
		}
		return collectLineStmt(s.Else, line, hits)
	case *lang.WhileStmt:
		return collectLineStmt(s.Body, line, hits)
	case *lang.SwitchStmt:
		for ci, c := range s.Cases {
			// A case's body ends before the next case keyword.
			if ci+1 < len(s.Cases) && s.Cases[ci+1].Pos().Line < line {
				continue
			}
			if !collectLine(c.Body, line, hits) {
				return false
			}
		}
	case *lang.BlockStmt:
		return collectLine(s.List, line, hits)
	case *lang.LabeledStmt:
		return collectLineStmt(s.Stmt, line, hits)
	}
	return true
}

// replaceStmt returns s with target replaced by repl, copying only
// the containers along the path (the rest of the tree is shared).
// ok reports whether target was found in s's subtree. The search is
// pruned like collectLine's: target sits on repl's line, so subtrees
// provably ending before that line — and everything after the first
// statement past it — are never entered.
func replaceStmt(s, target, repl lang.Stmt) (lang.Stmt, bool) {
	if s == target {
		return repl, true
	}
	if s == nil || s.Pos().Line > repl.Pos().Line {
		return s, false
	}
	switch s := s.(type) {
	case *lang.LabeledStmt:
		if inner, ok := replaceStmt(s.Stmt, target, repl); ok {
			c := *s
			c.Stmt = inner
			return &c, true
		}
	case *lang.BlockStmt:
		if list, ok := replaceInList(s.List, target, repl); ok {
			c := *s
			c.List = list
			return &c, true
		}
	case *lang.IfStmt:
		if s.Else == nil || s.Else.Pos().Line >= repl.Pos().Line {
			if then, ok := replaceStmt(s.Then, target, repl); ok {
				c := *s
				c.Then = then
				return &c, true
			}
		}
		if s.Else != nil {
			if els, ok := replaceStmt(s.Else, target, repl); ok {
				c := *s
				c.Else = els
				return &c, true
			}
		}
	case *lang.WhileStmt:
		if body, ok := replaceStmt(s.Body, target, repl); ok {
			c := *s
			c.Body = body
			return &c, true
		}
	case *lang.SwitchStmt:
		for i, cc := range s.Cases {
			if i+1 < len(s.Cases) && s.Cases[i+1].Pos().Line < repl.Pos().Line {
				continue
			}
			if body, ok := replaceInList(cc.Body, target, repl); ok {
				c := *s
				c.Cases = make([]*lang.CaseClause, len(s.Cases))
				copy(c.Cases, s.Cases)
				nc := *cc
				nc.Body = body
				c.Cases[i] = &nc
				return &c, true
			}
		}
	}
	return s, false
}

func replaceInList(list []lang.Stmt, target, repl lang.Stmt) ([]lang.Stmt, bool) {
	for i, s := range list {
		if i+1 < len(list) {
			if next := list[i+1]; next != nil && next.Pos().Line < repl.Pos().Line {
				continue // target can't be inside s
			}
		}
		if ns, ok := replaceStmt(s, target, repl); ok {
			out := make([]lang.Stmt, len(list))
			copy(out, list)
			out[i] = ns
			return out, true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------
// Small helpers.

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
