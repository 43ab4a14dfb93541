package lang

import (
	"fmt"
	"strconv"
	"sync"
)

// PrintOptions controls pretty-printing.
type PrintOptions struct {
	// LineNumbers prefixes each statement with its original source
	// line ("12: write(positives);"), reproducing the listings in the
	// paper's figures. Statements with line 0 (synthesized nodes) get
	// no prefix.
	LineNumbers bool
	// Indent is the indentation unit; default is four spaces.
	Indent string
}

// The printer appends every line to one byte buffer: no per-line or
// per-expression strings are built. Buffers are pooled, so printing a
// program allocates only the result string.
type printer struct {
	opts  PrintOptions
	buf   []byte
	depth int
	// record makes end note where each line's text lies in buf, in
	// spans (see LineTexts).
	record bool
	spans  []lineSpan
}

// lineSpan locates the text of one printed line in the buffer.
type lineSpan struct{ line, start, end int }

var printers = sync.Pool{New: func() any { return &printer{buf: make([]byte, 0, 4096)} }}

// maxPooledBuf bounds the buffers returned to the pool, so one huge
// program does not pin its buffer's memory.
const maxPooledBuf = 64 << 10

func newPrinter(opts PrintOptions) *printer {
	if opts.Indent == "" {
		opts.Indent = "    "
	}
	pr := printers.Get().(*printer)
	pr.opts = opts
	return pr
}

// done returns the printed text and releases the printer.
func (pr *printer) done() string {
	out := string(pr.buf)
	pr.release()
	return out
}

// release returns the printer to the pool; pr must not be used after.
func (pr *printer) release() {
	if cap(pr.buf) <= maxPooledBuf {
		*pr = printer{buf: pr.buf[:0], spans: pr.spans[:0]}
		printers.Put(pr)
	}
}

// Format pretty-prints a whole program: procedure declarations first
// (in declaration order), then the main body. Procs-first is the
// canonical layout — re-parsing the output yields the same canonical
// form again even when the input interleaved declarations and
// statements.
func Format(p *Program, opts PrintOptions) string {
	pr := newPrinter(opts)
	pr.program(p)
	return pr.done()
}

// FormatStmt pretty-prints a single statement subtree.
func FormatStmt(s Stmt, opts PrintOptions) string {
	pr := newPrinter(opts)
	pr.stmt(s)
	return pr.done()
}

// LineTexts returns, indexed by source line, the text the listing of
// p prints on that line — the first such line when a statement spans
// several — without line-number prefix or indentation: "L3: if (eof())
// goto L14;", "while (x > 0) {", "L8:" for a label on a compound
// statement. Lines without a statement map to "". The texts share the
// memory of one string.
func LineTexts(p *Program) []string {
	pr := newPrinter(PrintOptions{})
	pr.record = true
	pr.program(p)
	maxLine := 0
	for _, sp := range pr.spans {
		maxLine = max(maxLine, sp.line)
	}
	all, texts := string(pr.buf), make([]string, maxLine+1)
	for _, sp := range pr.spans {
		if texts[sp.line] == "" {
			texts[sp.line] = all[sp.start:sp.end]
		}
	}
	pr.release()
	return texts
}

func (pr *printer) program(p *Program) {
	for _, d := range p.Procs {
		pr.proc(d)
	}
	for _, s := range p.Body {
		pr.stmt(s)
	}
}

// proc prints one procedure declaration with its body indented.
func (pr *printer) proc(d *ProcDecl) {
	pr.procHeader(d)
	pr.depth++
	for _, s := range d.Body {
		pr.stmt(s)
	}
	pr.depth--
	pr.text(Pos{}, "}")
}

// procHeader prints a declaration's first line, "proc f(a, b) {".
func (pr *printer) procHeader(d *ProcDecl) {
	start := pr.begin(d.P)
	pr.buf = append(pr.buf, "proc "...)
	pr.buf = append(pr.buf, d.Name...)
	pr.buf = append(pr.buf, '(')
	for i, prm := range d.Params {
		if i > 0 {
			pr.buf = append(pr.buf, ", "...)
		}
		pr.buf = append(pr.buf, prm...)
	}
	pr.buf = append(pr.buf, ") {"...)
	pr.end(d.P, start)
}

// begin starts a line: the line-number prefix, if enabled, and the
// indentation. It returns the offset where the line's text starts.
func (pr *printer) begin(pos Pos) int {
	if pr.opts.LineNumbers {
		if pos.Line > 0 {
			pr.buf = AppendLineNumber(pr.buf, pos.Line)
		} else {
			pr.buf = append(pr.buf, "     "...)
		}
	}
	for i := 0; i < pr.depth; i++ {
		pr.buf = append(pr.buf, pr.opts.Indent...)
	}
	return len(pr.buf)
}

// AppendLineNumber appends the prefix a numbered listing gives a
// positive source line: the line right-aligned in three columns, then
// ": ".
func AppendLineNumber(b []byte, line int) []byte {
	switch {
	case line < 10:
		b = append(b, "  "...)
	case line < 100:
		b = append(b, ' ')
	}
	b = strconv.AppendInt(b, int64(line), 10)
	return append(b, ": "...)
}

// end finishes the line whose text starts at offset start.
func (pr *printer) end(pos Pos, start int) {
	if pr.record && pos.Line > 0 {
		pr.spans = append(pr.spans, lineSpan{pos.Line, start, len(pr.buf)})
	}
	pr.buf = append(pr.buf, '\n')
}

// text prints a line of fixed text.
func (pr *printer) text(pos Pos, s string) {
	start := pr.begin(pos)
	pr.buf = append(pr.buf, s...)
	pr.end(pos, start)
}

// header prints a compound statement's header line, "while (x > 0) {":
// keyword, parenthesized expression, and " {" when brace is set.
func (pr *printer) header(pos Pos, kw string, e Expr, brace bool) {
	start := pr.begin(pos)
	pr.buf = appendHeader(pr.buf, kw, e)
	if brace {
		pr.buf = append(pr.buf, " {"...)
	}
	pr.end(pos, start)
}

func (pr *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case nil:
	case *AssignStmt, *ReadStmt, *WriteStmt, *GotoStmt, *BreakStmt,
		*ContinueStmt, *ReturnStmt, *CallStmt, *EmptyStmt:
		start := pr.begin(s.Pos())
		pr.buf = appendSimple(pr.buf, s)
		pr.end(s.Pos(), start)
	case *LabeledStmt:
		// The label shares its statement's line in the paper's style
		// ("8: L8: positives = positives + 1;"), but nested labels and
		// labels on compound statements are clearer on their own line
		// only when the inner statement is compound.
		start := pr.begin(s.P)
		pr.buf = appendLabels(pr.buf, s)
		switch inner := Unlabel(s).(type) {
		case *AssignStmt, *ReadStmt, *WriteStmt, *GotoStmt, *BreakStmt,
			*ContinueStmt, *ReturnStmt, *CallStmt, *EmptyStmt:
			pr.buf = appendSimple(pr.buf, inner)
			pr.end(s.P, start)
			return
		case *IfStmt:
			// Inline a labeled conditional jump:
			// "3: L3: if (eof()) goto L14;".
			if isCondJump(inner) {
				pr.buf = appendCondJump(pr.buf, inner)
				pr.end(s.P, start)
				return
			}
		}
		pr.buf = pr.buf[:len(pr.buf)-1] // "L3:" alone, no trailing space
		pr.end(s.P, start)
		pr.stmt(Unlabel(s))
	case *BlockStmt:
		pr.text(s.P, "{")
		pr.depth++
		for _, st := range s.List {
			pr.stmt(st)
		}
		pr.depth--
		pr.text(Pos{}, "}")
	case *IfStmt:
		// The conditional-jump idiom prints on one line, matching the
		// paper's "3: L3: if (eof()) goto L14;" style.
		if isCondJump(s) {
			start := pr.begin(s.P)
			pr.buf = appendCondJump(pr.buf, s)
			pr.end(s.P, start)
			return
		}
		pr.header(s.P, "if", s.Cond, isBlock(s.Then))
		pr.body(s.Then)
		if s.Else != nil {
			if isBlock(s.Else) {
				pr.text(Pos{}, "else {")
			} else {
				pr.text(Pos{}, "else")
			}
			pr.body(s.Else)
		}
	case *WhileStmt:
		pr.header(s.P, "while", s.Cond, isBlock(s.Body))
		pr.body(s.Body)
	case *SwitchStmt:
		pr.header(s.P, "switch", s.Tag, true)
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
			for _, st := range c.Body {
				pr.stmt(st)
			}
			pr.depth--
		}
		pr.text(Pos{}, "}")
	default:
		pr.text(s.Pos(), "/* unknown statement "+typeName(s)+" */")
	}
}

// body prints the body of an if/while arm: blocks inline their braces,
// other statements are indented one level.
func (pr *printer) body(s Stmt) {
	pr.depth++
	if blk, ok := s.(*BlockStmt); ok {
		for _, st := range blk.List {
			pr.stmt(st)
		}
		pr.depth--
		pr.text(Pos{}, "}")
		return
	}
	pr.stmt(s)
	pr.depth--
}

func isBlock(s Stmt) bool {
	_, ok := s.(*BlockStmt)
	return ok
}

// isCondJump reports whether s is the conditional-jump idiom printed
// on one line: an else-less if whose then-arm is an unlabeled jump.
func isCondJump(s *IfStmt) bool {
	if s.Else != nil || s.Then == nil {
		return false
	}
	if _, labeled := s.Then.(*LabeledStmt); labeled {
		return false
	}
	return IsJump(s.Then)
}

// appendCondJump appends "if (cond) goto L;".
func appendCondJump(b []byte, s *IfStmt) []byte {
	b = appendHeader(b, "if", s.Cond)
	b = append(b, ' ')
	return appendSimple(b, s.Then)
}

// appendHeader appends "kw (e)".
func appendHeader(b []byte, kw string, e Expr) []byte {
	b = append(b, kw...)
	b = append(b, " ("...)
	b = appendExpr(b, e)
	return append(b, ')')
}

// appendLabels appends the (possibly nested) labels of s: "L8: ".
func appendLabels(b []byte, s Stmt) []byte {
	for {
		l, ok := s.(*LabeledStmt)
		if !ok {
			return b
		}
		b = append(b, l.Label...)
		b = append(b, ": "...)
		s = l.Stmt
	}
}

// appendSimple appends a simple (non-compound) statement, without a
// trailing newline.
func appendSimple(b []byte, s Stmt) []byte {
	switch s := s.(type) {
	case *AssignStmt:
		b = append(b, s.Name...)
		b = append(b, " = "...)
		b = appendExpr(b, s.Value)
	case *ReadStmt:
		b = append(b, "read("...)
		b = append(b, s.Name...)
		b = append(b, ')')
	case *WriteStmt:
		b = append(b, "write("...)
		b = appendExpr(b, s.Value)
		b = append(b, ')')
	case *GotoStmt:
		b = append(b, "goto "...)
		b = append(b, s.Label...)
	case *BreakStmt:
		b = append(b, "break"...)
	case *ContinueStmt:
		b = append(b, "continue"...)
	case *ReturnStmt:
		b = append(b, "return"...)
		if s.Value != nil {
			b = append(b, ' ')
			b = appendExpr(b, s.Value)
		}
	case *CallStmt:
		b = append(b, "call "...)
		b = appendCall(b, s.Name, s.Args)
	case *EmptyStmt:
	default:
		return append(b, "/* "+typeName(s)+" */"...)
	}
	return append(b, ';')
}

// StmtString renders a one-line summary of a statement: simple
// statements in full, compound statements as their header ("if (x <=
// 0)", "switch (c())"). Used by graph visualizations and diagnostics.
func StmtString(s Stmt) string {
	var b []byte
	switch s2 := Unlabel(s).(type) {
	case *IfStmt:
		b = appendHeader(b, "if", s2.Cond)
	case *WhileStmt:
		b = appendHeader(b, "while", s2.Cond)
	case *SwitchStmt:
		b = appendHeader(b, "switch", s2.Tag)
	case *BlockStmt:
		return "{...}"
	default:
		b = appendSimple(appendLabels(b, s), s2)
	}
	return string(b)
}

// precedence levels for minimal parenthesization when printing.
func exprPrec(e Expr) int {
	switch e := e.(type) {
	case *BinaryExpr:
		switch e.Op {
		case "||":
			return 1
		case "&&":
			return 2
		case "==", "!=", "<", "<=", ">", ">=":
			return 3
		case "+", "-":
			return 4
		default: // * / %
			return 5
		}
	case *UnaryExpr:
		return 6
	default:
		return 7
	}
}

// ExprString renders an expression with minimal parentheses.
func ExprString(e Expr) string { return string(appendExpr(nil, e)) }

func appendExpr(b []byte, e Expr) []byte {
	switch e := e.(type) {
	case nil:
		return b
	case *IntLit:
		return strconv.AppendInt(b, e.Value, 10)
	case *Ident:
		return append(b, e.Name...)
	case *CallExpr:
		return appendCall(b, e.Name, e.Args)
	case *UnaryExpr:
		b = append(b, e.Op...)
		return appendOperand(b, e.X, exprPrec(e.X) < exprPrec(e))
	case *BinaryExpr:
		prec := exprPrec(e)
		b = appendOperand(b, e.X, exprPrec(e.X) < prec)
		b = append(b, ' ')
		b = append(b, e.Op...)
		b = append(b, ' ')
		// Right operand needs parens at equal precedence too, since
		// all operators here are left-associative.
		return appendOperand(b, e.Y, exprPrec(e.Y) <= prec)
	}
	return append(b, "/* "+typeName(e)+" */"...)
}

// appendOperand appends e, parenthesized when paren is set.
func appendOperand(b []byte, e Expr, paren bool) []byte {
	if !paren {
		return appendExpr(b, e)
	}
	b = append(b, '(')
	b = appendExpr(b, e)
	return append(b, ')')
}

// appendCall appends "name(a, b)".
func appendCall(b []byte, name string, args []Expr) []byte {
	b = append(b, name...)
	b = append(b, '(')
	for i, a := range args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendExpr(b, a)
	}
	return append(b, ')')
}

// typeName names a node type the printer does not know, for the
// placeholder comment it prints instead.
func typeName(x any) string { return fmt.Sprintf("%T", x) }
