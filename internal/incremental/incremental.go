// Package incremental holds the program-level half of an incremental
// edit. SpliceLine is a single-statement reparse-and-splice that
// turns a one-line text edit into a new AST without paying a full
// reparse, the cost that would otherwise dominate an editor-speed
// re-slice. Edit is the statement-level edit a same-shape
// re-analysis reports.
//
// Whether an edit kept the flowgraph, which statements it changed and
// whether any of them defines a different variable is not decided
// here: cfg.Rebind decides all three in its one lockstep walk of the
// old and new programs. A full re-analysis reports no edits: a shape
// change has no statement-level edit the reuse tiers could act on.
package incremental

import (
	"strings"

	"jumpslice/internal/lang"
)

// Op is the kind of a statement-level edit.
type Op int

// OpReplace substitutes one statement for another at the same
// structural position, the only edit a same-shape re-analysis makes.
const OpReplace Op = 0

// Edit is one entry of a statement-level edit report. Line is the
// statement's source line in the new program; Text is a one-line
// rendering of the statement.
type Edit struct {
	Op   Op     `json:"op"`
	Line int    `json:"line"`
	Text string `json:"text"`
}

// ---------------------------------------------------------------------
// Single-line splice.

// SpliceLine replaces source line line of p with text, the whole new
// line as an editor sends it, and returns the new program. Only text
// is parsed (lang.ParseStmt); the rest of the tree is shared with p,
// and the containers on the path to the line are copied, so p is
// never mutated.
//
// The line must hold one line statement of p, and text must be one
// line statement. A line statement is a simple statement (assign,
// read, write, goto, break, continue, return or empty), optionally
// labeled, or an else-less if on one line whose then-arm is an
// unlabeled simple statement ("L3: if (eof()) goto L14;").
//
// A splice is accepted only when reparsing the edited source would
// succeed and give the same program. SpliceLine checks the rules a
// reparse would apply itself:
//
//   - Labels: the labels text writes must be the line's label chain
//     exactly, so the label set, and with it every other goto, is
//     unchanged.
//   - Jump scope: a goto, break or continue in text must pass
//     lang.CheckJump in the line's loop and switch context, which the
//     spine walk that copies the containers computes.
//   - Statement count: a simple statement replaces a simple one and a
//     one-line if a one-line if, with lang.CountStatements of the
//     program unchanged (an empty statement counts nothing). Swapping
//     an if for a simple statement is refused: in a then-arm with an
//     else on the next line, an else-less if would capture the else.
//   - Nesting: text nests no deeper at the line than Parse allows.
//
// Everything else returns ok=false, and callers fall back to a full
// reparse: p declares procedures (the splice rebuilds only the main
// body); text spans lines or is not one line statement (a call
// statement, a compound statement, two statements, a syntax error);
// the line holds anything but one line statement of p (a multi-line
// or compound statement, or a second statement).
//
// SpliceLine sees the tree, not the source, so it cannot see tokens
// on the line that belong to no statement starting there (an else, a
// case label, a closing brace, a comment left open). Every line of a
// formatted program is free of them; a caller holding arbitrary
// source checks the old line too (cmd/sliced parses it with
// lang.ParseStmt).
func SpliceLine(p *lang.Program, line int, text string) (*lang.Program, bool) {
	if len(p.Procs) > 0 || strings.ContainsAny(text, "\n\r") {
		return nil, false
	}
	target, ok := lineStmtAt(p, line)
	if !ok {
		return nil, false
	}
	sp := &splice{labels: p.Labels, line: line, text: text, target: target}
	body, ok := sp.list(p.Body, 0, false, false)
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

// lineKind classifies a statement with its labels stripped: whether it
// is a line statement, whether it is the one-line if form, and what
// lang.CountStatements counts of it.
func lineKind(s lang.Stmt) (ok, isIf bool, count int) {
	switch s := s.(type) {
	case *lang.EmptyStmt:
		return true, false, 0
	case *lang.AssignStmt, *lang.ReadStmt, *lang.WriteStmt, *lang.GotoStmt,
		*lang.BreakStmt, *lang.ContinueStmt, *lang.ReturnStmt:
		return true, false, 1
	case *lang.IfStmt:
		if s.Else != nil {
			return false, false, 0
		}
		if simple, isIf, n := lineKind(s.Then); simple && !isIf {
			return true, true, 1 + n
		}
	}
	return false, false, 0
}

// splice carries one SpliceLine call through the spine walk.
type splice struct {
	labels map[string]*lang.LabeledStmt // p's label scope
	line   int
	text   string
	target lang.Stmt // outermost statement on the line: its first label wrapper, if any
}

// replacement parses the text as the target's replacement, given the
// target's context: depth enclosing statements, inside a loop and/or a
// switch. It returns nil when the splice must be refused.
func (sp *splice) replacement(depth int, inLoop, inSwitch bool) lang.Stmt {
	repl, err := lang.ParseStmt(sp.text, sp.line, depth)
	if err != nil {
		return nil
	}
	o, n := sp.target, repl
	for {
		ol, oLabeled := o.(*lang.LabeledStmt)
		nl, nLabeled := n.(*lang.LabeledStmt)
		if oLabeled != nLabeled || oLabeled && ol.Label != nl.Label {
			return nil
		}
		if !oLabeled {
			break
		}
		o, n = ol.Stmt, nl.Stmt
	}
	_, oIf, oCount := lineKind(o)
	ok, nIf, nCount := lineKind(n)
	if !ok || nIf != oIf || nCount != oCount {
		return nil
	}
	if s, ok := n.(*lang.IfStmt); ok {
		n = s.Then // an if changes no jump context
	}
	if lang.CheckJump(n, sp.labels, inLoop, inSwitch) != nil {
		return nil
	}
	return repl
}

// stmt returns s with the target replaced, copying only the containers
// along the path (the rest of the tree is shared). ok reports that
// the target was found in s's subtree and its replacement accepted.
// depth, inLoop and inSwitch are s's context, as lang.CheckJump and
// lang.ParseStmt take it. The search is pruned like collectLine's:
// subtrees provably ending before the line, and everything after the
// first statement past it, are never entered.
func (sp *splice) stmt(s lang.Stmt, depth int, inLoop, inSwitch bool) (lang.Stmt, bool) {
	if s == sp.target {
		repl := sp.replacement(depth, inLoop, inSwitch)
		return repl, repl != nil
	}
	if s == nil || s.Pos().Line > sp.line {
		return s, false
	}
	depth++
	switch s := s.(type) {
	case *lang.LabeledStmt:
		if inner, ok := sp.stmt(s.Stmt, depth, inLoop, inSwitch); ok {
			c := *s
			c.Stmt = inner
			return &c, true
		}
	case *lang.BlockStmt:
		if list, ok := sp.list(s.List, depth, inLoop, inSwitch); ok {
			c := *s
			c.List = list
			return &c, true
		}
	case *lang.IfStmt:
		if s.Else == nil || s.Else.Pos().Line >= sp.line {
			if then, ok := sp.stmt(s.Then, depth, inLoop, inSwitch); ok {
				c := *s
				c.Then = then
				return &c, true
			}
		}
		if s.Else != nil {
			if els, ok := sp.stmt(s.Else, depth, inLoop, inSwitch); ok {
				c := *s
				c.Else = els
				return &c, true
			}
		}
	case *lang.WhileStmt:
		if body, ok := sp.stmt(s.Body, depth, true, false); ok {
			c := *s
			c.Body = body
			return &c, true
		}
	case *lang.SwitchStmt:
		for i, cc := range s.Cases {
			if i+1 < len(s.Cases) && s.Cases[i+1].Pos().Line < sp.line {
				continue
			}
			if body, ok := sp.list(cc.Body, depth, inLoop, true); ok {
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

// list is stmt over a statement list whose statements have the given
// context.
func (sp *splice) list(list []lang.Stmt, depth int, inLoop, inSwitch bool) ([]lang.Stmt, bool) {
	for i, s := range list {
		if i+1 < len(list) {
			if next := list[i+1]; next != nil && next.Pos().Line < sp.line {
				continue // the target can't be inside s
			}
		}
		if ns, ok := sp.stmt(s, depth, inLoop, inSwitch); ok {
			out := make([]lang.Stmt, len(list))
			copy(out, list)
			out[i] = ns
			return out, true
		}
	}
	return nil, false
}

// fixLabels re-points label-map entries at the wrappers the splice
// copied along the spine or parsed from the text. It walks old and
// new in lockstep and descends only where the pointers differ — the
// copied spine — so its cost is the spine, not the program.
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

// lineStmtAt finds the line statement occupying the given line and
// returns its outermost node (its first label wrapper, if labeled).
// It demands that every statement node positioned on the line is that
// statement, one of its label wrappers or, for a one-line if, its
// then-arm, and that their expressions sit on the line too; together
// these guarantee a textual replacement of the line touches exactly
// this statement.
func lineStmtAt(p *lang.Program, line int) (lang.Stmt, bool) {
	var hits []lang.Stmt
	collectLine(p.Body, line, &hits)
	if len(hits) == 0 {
		return nil, false
	}
	// Walk order visits wrappers before their inner statement, and an
	// if before its then-arm.
	i := 0
	for ; i+1 < len(hits); i++ {
		l, ok := hits[i].(*lang.LabeledStmt)
		if !ok {
			break
		}
		if l.Stmt != hits[i+1] {
			return nil, false
		}
	}
	s, rest := hits[i], hits[i+1:]
	if ok, _, _ := lineKind(s); !ok {
		return nil, false
	}
	if is, isIf := s.(*lang.IfStmt); isIf {
		if len(rest) != 1 || rest[0] != is.Then || !exprOnLine(is.Cond, line) {
			return nil, false
		}
		s, rest = is.Then, nil
	}
	if len(rest) != 0 || !exprOnLine(stmtExpr(s), line) {
		return nil, false
	}
	return hits[0], true
}

// stmtExpr returns the expression of a simple statement, or nil.
func stmtExpr(s lang.Stmt) lang.Expr {
	switch s := s.(type) {
	case *lang.AssignStmt:
		return s.Value
	case *lang.WriteStmt:
		return s.Value
	case *lang.ReturnStmt:
		return s.Value
	}
	return nil
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
