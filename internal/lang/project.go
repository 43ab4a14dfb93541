package lang

import "strconv"

// Projection selects what a projection (Project, FormatProjection)
// keeps of one statement list. Statements are named by preorder
// ordinal: the node-bearing statements — every statement except label wrappers and
// non-empty blocks — numbered from 0 in the order a preorder walk of
// the list meets them, a compound before its branches. This is the
// order cfg.Build numbers flowgraph nodes in, so a slice can answer
// both methods straight from its node set.
type Projection interface {
	// Keep reports whether the statement with ordinal ord is kept.
	Keep(ord int) bool
	// Labels returns the labels to attach in front of the statement
	// with ordinal ord, outermost first; nil for none. It is asked
	// only about kept statements.
	Labels(ord int) []string
}

// ProjectedBody is one statement list of a projection — the main body
// or a procedure's: what Proj keeps of it, followed by one "L: ;"
// statement per Trailing label, in order. Ordinals restart from 0 in
// each body.
type ProjectedBody struct {
	Proj     Projection
	Trailing []string
}

// Project builds the projection of p that main and procs select: the
// program that keeps the declaration of each procedure i with a
// non-nil procs[i].Proj, and in each kept body (and the main body)
//
//   - every kept simple statement, with its Labels in front;
//   - every compound statement that is kept or has a kept statement
//     inside, with its Labels in front; an emptied if or while branch
//     becomes an empty block at the compound's position, and an
//     emptied else is dropped;
//   - every switch clause up to the last one with a kept statement
//     (an emptied clause before it must stay, since control falls
//     through it);
//   - every block with a kept statement inside, and every label
//     wrapper around a kept statement;
//
// then one "L: ;" per trailing label. No statement of p is kept for
// its own sake if it is an empty block. Each body's Labels index names
// the last wrapper of each label in preorder.
//
// Kept simple statements and expressions are p's own values; compound
// statements, blocks, clauses and label wrappers are new, so p is left
// as it was.
func Project(p *Program, main ProjectedBody, procs []ProjectedBody) *Program {
	out := &Program{}
	for i, d := range p.Procs {
		if i < len(procs) && procs[i].Proj != nil {
			body, labels := projectBody(d.Body, procs[i])
			out.Procs = append(out.Procs, &ProcDecl{P: d.P, Name: d.Name, Params: d.Params, Body: body, Labels: labels})
		}
	}
	out.Body, out.Labels = projectBody(p.Body, main)
	return out
}

// projectBody builds the projection of one statement list and its
// label index.
func projectBody(list []Stmt, b ProjectedBody) ([]Stmt, map[string]*LabeledStmt) {
	x := builder{proj: b.Proj}
	body := x.list(list)
	for _, l := range b.Trailing {
		body = append(body, &LabeledStmt{Label: l, Stmt: &EmptyStmt{}})
	}
	labels := map[string]*LabeledStmt{}
	for _, s := range body {
		Walk(s, func(s Stmt) {
			if l, ok := s.(*LabeledStmt); ok {
				labels[l.Label] = l
			}
		})
	}
	return body, labels
}

// builder builds the projection of one statement list.
type builder struct {
	proj Projection
	ord  int // ordinal of the next node-bearing statement
}

// take claims the next ordinal.
func (x *builder) take() int {
	x.ord++
	return x.ord - 1
}

// list returns what survives of a statement list; nil for nothing.
func (x *builder) list(in []Stmt) []Stmt {
	var out []Stmt
	for _, s := range in {
		if r := x.stmt(s); r != nil {
			out = append(out, r)
		}
	}
	return out
}

// branch returns what survives of an if or while branch, or an empty
// block at pos when nothing does, so the compound still parses.
func (x *builder) branch(s Stmt, pos Pos) Stmt {
	if r := x.stmt(s); r != nil {
		return r
	}
	return &BlockStmt{P: pos}
}

// stmt returns what survives of s, or nil if nothing does.
func (x *builder) stmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *AssignStmt, *ReadStmt, *WriteStmt, *GotoStmt, *BreakStmt,
		*ContinueStmt, *ReturnStmt, *CallStmt, *EmptyStmt:
		ord := x.take()
		if !x.proj.Keep(ord) {
			return nil
		}
		return x.labeled(ord, s)
	case *LabeledStmt:
		inner := x.stmt(s.Stmt)
		if inner == nil {
			return nil
		}
		return &LabeledStmt{P: s.P, Label: s.Label, Stmt: inner}
	case *BlockStmt:
		if len(s.List) == 0 {
			x.take() // an empty block's skip node
			return nil
		}
		list := x.list(s.List)
		if list == nil {
			return nil
		}
		return &BlockStmt{P: s.P, List: list}
	case *IfStmt:
		ord := x.take()
		then := x.stmt(s.Then)
		var els Stmt
		if s.Else != nil {
			els = x.stmt(s.Else)
		}
		if then == nil && els == nil && !x.proj.Keep(ord) {
			return nil
		}
		if then == nil {
			then = &BlockStmt{P: s.P}
		}
		return x.labeled(ord, &IfStmt{P: s.P, Cond: s.Cond, Then: then, Else: els})
	case *WhileStmt:
		ord := x.take()
		body := x.stmt(s.Body)
		if body == nil && !x.proj.Keep(ord) {
			return nil
		}
		if body == nil {
			body = &BlockStmt{P: s.P}
		}
		return x.labeled(ord, &WhileStmt{P: s.P, Cond: s.Cond, Body: body})
	case *SwitchStmt:
		ord := x.take()
		var cases []*CaseClause
		last := -1
		for _, c := range s.Cases {
			body := x.list(c.Body)
			if body != nil {
				last = len(cases)
			}
			cases = append(cases, &CaseClause{P: c.P, Values: c.Values, IsDefault: c.IsDefault, Body: body})
		}
		if last < 0 && !x.proj.Keep(ord) {
			return nil
		}
		return x.labeled(ord, &SwitchStmt{P: s.P, Tag: s.Tag, Cases: cases[:last+1]})
	}
	return nil
}

// labeled wraps s, the projection of the statement with ordinal ord,
// in that statement's Labels if it is kept, the first label outermost.
func (x *builder) labeled(ord int, s Stmt) Stmt {
	if !x.proj.Keep(ord) {
		return s
	}
	labels := x.proj.Labels(ord)
	for i := len(labels) - 1; i >= 0; i-- {
		s = &LabeledStmt{P: s.Pos(), Label: labels[i], Stmt: s}
	}
	return s
}

// FormatProjection prints the projection of p that main and procs
// select, without building it: the listing is Format of Project(p,
// main, procs). Declarations without an entry in procs are not
// printed.
//
// Subtrees are printed speculatively and cut back when nothing in them
// is kept, so the walk visits each statement once.
func FormatProjection(p *Program, main ProjectedBody, procs []ProjectedBody, opts PrintOptions) string {
	x := projector{pr: newPrinter(opts)}
	for i, d := range p.Procs {
		if i < len(procs) && procs[i].Proj != nil {
			x.pr.procHeader(d)
			x.pr.depth++
			x.body(d.Body, procs[i])
			x.pr.depth--
			x.pr.text(Pos{}, "}")
		}
	}
	x.body(p.Body, main)
	return x.pr.done()
}

// body prints the projection of one statement list and its trailing
// labels.
func (x *projector) body(list []Stmt, b ProjectedBody) {
	x.proj, x.ord = b.Proj, 0
	for _, s := range list {
		x.stmt(s, false)
	}
	for _, l := range b.Trailing {
		start := x.pr.begin(Pos{})
		x.pr.buf = append(x.pr.buf, l...)
		x.pr.buf = append(x.pr.buf, ": ;"...)
		x.pr.end(Pos{}, start)
	}
}

type projector struct {
	pr   *printer
	proj Projection
	ord  int // ordinal of the next node-bearing statement
}

// take claims the next ordinal.
func (x *projector) take() int {
	x.ord++
	return x.ord - 1
}

// labels appends the labels of ordinal ord, each followed by ": ".
func (x *projector) labels(ord int) {
	for _, l := range x.proj.Labels(ord) {
		x.pr.buf = append(x.pr.buf, l...)
		x.pr.buf = append(x.pr.buf, ": "...)
	}
}

// stmt prints the projection of s and reports whether anything of s
// survived. open means enclosing label wrappers have begun the line
// and printed their labels: s continues that line (a simple statement
// or a one-line conditional jump) or ends it before printing its own
// lines. When nothing survived, stmt cuts the buffer back to where it
// found it, and the wrappers cut their line back in turn.
func (x *projector) stmt(s Stmt, open bool) bool {
	pr := x.pr
	mark := len(pr.buf)
	switch s := s.(type) {
	case nil:
		return false
	case *AssignStmt, *ReadStmt, *WriteStmt, *GotoStmt, *BreakStmt,
		*ContinueStmt, *ReturnStmt, *CallStmt, *EmptyStmt:
		ord := x.take()
		if !x.proj.Keep(ord) {
			return false
		}
		start := len(pr.buf)
		if !open {
			start = pr.begin(s.Pos())
		}
		x.labels(ord)
		pr.buf = appendSimple(pr.buf, s)
		pr.end(s.Pos(), start)
		return true
	case *LabeledStmt:
		if !open {
			pr.begin(s.P)
		}
		pr.buf = append(pr.buf, s.Label...)
		pr.buf = append(pr.buf, ": "...)
		if !x.stmt(s.Stmt, true) {
			pr.buf = pr.buf[:mark]
			return false
		}
		return true
	case *BlockStmt:
		if len(s.List) == 0 {
			x.take() // an empty block's skip node
			return false
		}
		x.endOpen(open)
		pr.text(s.P, "{")
		pr.depth++
		kept := false
		for _, st := range s.List {
			kept = x.stmt(st, false) || kept
		}
		pr.depth--
		if !kept {
			pr.buf = pr.buf[:mark]
			return false
		}
		pr.text(Pos{}, "}")
		return true
	case *IfStmt:
		ord := x.take()
		kept := x.proj.Keep(ord)
		if isCondJump(s) && x.proj.Keep(ord+1) && x.proj.Labels(ord+1) == nil {
			// The jump survives unlabeled, so the conditional jump
			// still prints on one line.
			start := len(pr.buf)
			if !open {
				start = pr.begin(s.P)
			}
			if kept {
				x.labels(ord)
			}
			pr.buf = appendCondJump(pr.buf, s)
			pr.end(s.P, start)
			x.take()
			return true
		}
		x.compoundLine(ord, kept, open, s.P)
		pr.header(s.P, "if", s.Cond, isBlock(s.Then))
		kept = x.branch(s.Then) || kept
		if s.Else != nil {
			elseMark := len(pr.buf)
			if isBlock(s.Else) {
				pr.text(Pos{}, "else {")
			} else {
				pr.text(Pos{}, "else")
			}
			if x.branch(s.Else) {
				kept = true
			} else {
				pr.buf = pr.buf[:elseMark]
			}
		}
		if !kept {
			pr.buf = pr.buf[:mark]
		}
		return kept
	case *WhileStmt:
		ord := x.take()
		kept := x.proj.Keep(ord)
		x.compoundLine(ord, kept, open, s.P)
		pr.header(s.P, "while", s.Cond, isBlock(s.Body))
		if !x.branch(s.Body) && !kept {
			pr.buf = pr.buf[:mark]
			return false
		}
		return true
	case *SwitchStmt:
		ord := x.take()
		kept := x.proj.Keep(ord)
		x.compoundLine(ord, kept, open, s.P)
		pr.header(s.P, "switch", s.Tag, true)
		// Clauses print as they come; those after the last clause with
		// a kept statement are cut back off.
		lastKept := len(pr.buf)
		for _, c := range s.Cases {
			if c.IsDefault {
				pr.text(c.P, "default:")
			} else {
				start := pr.begin(c.P)
				pr.buf = append(pr.buf, "case "...)
				for i, v := range c.Values {
					if i > 0 {
						pr.buf = append(pr.buf, ", "...)
					}
					pr.buf = strconv.AppendInt(pr.buf, v, 10)
				}
				pr.buf = append(pr.buf, ':')
				pr.end(c.P, start)
			}
			pr.depth++
			body := false
			for _, st := range c.Body {
				body = x.stmt(st, false) || body
			}
			pr.depth--
			if body {
				lastKept, kept = len(pr.buf), true
			}
		}
		if !kept {
			pr.buf = pr.buf[:mark]
			return false
		}
		pr.buf = pr.buf[:lastKept]
		pr.text(Pos{}, "}")
		return true
	}
	pr.text(s.Pos(), "/* unknown statement "+typeName(s)+" */")
	return true
}

// compoundLine prints what precedes a compound statement's header:
// the labels of a kept compound, on the line enclosing label wrappers
// opened or on a line of their own, and the end of that line.
func (x *projector) compoundLine(ord int, kept, open bool, pos Pos) {
	if kept && x.proj.Labels(ord) != nil {
		if !open {
			x.pr.begin(pos)
			open = true
		}
		x.labels(ord)
	}
	x.endOpen(open)
}

// endOpen ends a line label wrappers opened, dropping the space after
// the last label ("L3:" alone).
func (x *projector) endOpen(open bool) {
	if open {
		x.pr.buf = x.pr.buf[:len(x.pr.buf)-1]
		x.pr.end(Pos{}, 0)
	}
}

// branch prints an if or while branch under a header already printed,
// reporting whether anything of it survived. A block's braces belong
// to the header and the closing line; any other statement that
// vanishes leaves "{}", so the header line gets its brace after all.
func (x *projector) branch(s Stmt) bool {
	pr := x.pr
	pr.depth++
	if blk, ok := s.(*BlockStmt); ok {
		kept := false
		if len(blk.List) == 0 {
			x.take()
		}
		for _, st := range blk.List {
			kept = x.stmt(st, false) || kept
		}
		pr.depth--
		pr.text(Pos{}, "}")
		return kept
	}
	kept := x.stmt(s, false)
	pr.depth--
	if !kept {
		pr.buf = append(pr.buf[:len(pr.buf)-1], " {\n"...)
		pr.text(Pos{}, "}")
	}
	return kept
}
