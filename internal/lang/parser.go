package lang

import (
	"fmt"
	"math"
	"strconv"
)

// Parser is a recursive-descent parser for the language. Use Parse or
// MustParse rather than constructing one directly.
type Parser struct {
	lx *Lexer
	// buf[head:] is the lookahead. next advances head and resets the
	// buffer once it drains; peekN slides pending tokens to the front
	// when the buffer is full. The buffer is thus reused, never
	// reallocated, as tokens are consumed.
	buf   []Token
	head  int
	err   *SyntaxError
	prog  *Program
	depth int // current nesting depth, bounded by maxNestingDepth
	// labels is the label index of the scope being parsed: the main
	// body's map normally, swapped for the procedure's own map inside
	// a proc body (labels are scoped per procedure).
	labels map[string]*LabeledStmt
}

// maxNestingDepth bounds statement and expression nesting. The parser
// is recursive-descent, so an adversarial input like "{{{{..." or
// "!!!!..." otherwise converts input length into stack depth and
// overflows the goroutine stack (a crash no recover() can catch).
// Every downstream traversal — validation, AST walks, CFG and
// dependence construction — recurses along the same nesting, so this
// single bound protects the whole pipeline. One thousand levels is
// far beyond any human-written or generated program in the corpora.
const maxNestingDepth = 1000

// enter counts one nesting level, reporting whether parsing may
// recurse further; leave undoes it. On overflow it records a syntax
// error, which makes every parsing loop terminate promptly.
func (p *Parser) enter(pos Pos) bool {
	p.depth++
	if p.depth > maxNestingDepth {
		p.errorf(pos, "nesting too deep (more than %d levels)", maxNestingDepth)
		return false
	}
	return true
}

func (p *Parser) leave() { p.depth-- }

// Parse parses source text into a Program. It returns the first
// syntax or semantic error encountered (duplicate label, goto to an
// undefined label, break/continue outside a loop or switch, duplicate
// case value, multiple defaults).
func Parse(src string) (*Program, error) {
	p := &Parser{lx: NewLexer(src), prog: &Program{Labels: map[string]*LabeledStmt{}}}
	p.labels = p.prog.Labels
	for p.peek().Kind != EOF && p.err == nil {
		if p.peek().Kind == KwProc {
			p.prog.Procs = append(p.prog.Procs, p.parseProc())
			continue
		}
		p.prog.Body = append(p.prog.Body, p.parseStmt())
	}
	if p.err == nil {
		if lerr := p.lx.Err(); lerr != nil {
			return nil, lerr
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

// ParseStmt parses src as exactly one statement, positioned as if src
// were source line line of a program, with the parser already depth
// statements deep. It applies no program-level check: labels are
// neither recorded nor resolved, and jumps are not scope-checked
// (CheckJump does that against the program the statement joins).
// Anything before or after the one statement is an error.
func ParseStmt(src string, line, depth int) (Stmt, error) {
	p := &Parser{lx: &Lexer{src: src, line: line, col: 1}, depth: depth}
	s := p.parseStmt()
	if t := p.peek(); p.err == nil && t.Kind != EOF {
		p.errorf(t.Pos, "expected end of statement, found %s", t)
	}
	if p.err == nil {
		if lerr := p.lx.Err(); lerr != nil {
			return nil, lerr
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return s, nil
}

// MustParse is Parse but panics on error. It is intended for the
// built-in corpus and tests, where the source is known-good.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("lang.MustParse: %v", err))
	}
	return prog
}

func (p *Parser) errorf(pos Pos, format string, args ...any) {
	if p.err == nil {
		p.err = &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
}

func (p *Parser) peek() Token {
	if p.head < len(p.buf) {
		return p.buf[p.head]
	}
	return p.peekN(0)
}

func (p *Parser) peekN(n int) Token {
	for len(p.buf)-p.head <= n {
		if p.head > 0 && len(p.buf) == cap(p.buf) {
			p.buf, p.head = p.buf[:copy(p.buf, p.buf[p.head:])], 0
		}
		p.buf = append(p.buf, p.lx.Next())
	}
	return p.buf[p.head+n]
}

func (p *Parser) next() Token {
	t := p.peek()
	if p.head++; p.head == len(p.buf) {
		p.buf, p.head = p.buf[:0], 0
	}
	return t
}

// intLit converts an INT token's digits, reporting a literal outside
// the int64 range as a syntax error at the literal.
func (p *Parser) intLit(t Token) int64 {
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		p.errorf(t.Pos, "integer literal out of range (max %d)", int64(math.MaxInt64))
	}
	return n
}

func (p *Parser) expect(k TokenKind) Token {
	t := p.peek()
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, t)
		return Token{Kind: k, Pos: t.Pos}
	}
	return p.next()
}

// ---------------------------------------------------------------------
// Statements.

func (p *Parser) parseStmt() Stmt {
	t := p.peek()
	if p.err != nil {
		// Error recovery is deliberately absent: return an empty
		// statement so parsing terminates promptly after the first
		// error.
		return &EmptyStmt{P: t.Pos}
	}
	if !p.enter(t.Pos) {
		return &EmptyStmt{P: t.Pos}
	}
	s := p.parseStmtKind(t)
	p.leave()
	return s
}

// parseStmtKind parses the statement that starts with token t.
func (p *Parser) parseStmtKind(t Token) Stmt {
	switch t.Kind {
	case IDENT:
		if p.peekN(1).Kind == Colon {
			return p.parseLabeled()
		}
		return p.parseAssign()
	case KwIf:
		return p.parseIf()
	case KwWhile:
		return p.parseWhile()
	case KwSwitch:
		return p.parseSwitch()
	case LBrace:
		return p.parseBlock()
	case KwGoto:
		p.next()
		target := p.expect(IDENT)
		p.expect(Semi)
		return &GotoStmt{P: t.Pos, Label: target.Text}
	case KwBreak:
		p.next()
		p.expect(Semi)
		return &BreakStmt{P: t.Pos}
	case KwContinue:
		p.next()
		p.expect(Semi)
		return &ContinueStmt{P: t.Pos}
	case KwReturn:
		p.next()
		var val Expr
		if p.peek().Kind != Semi {
			val = p.parseExpr()
		}
		p.expect(Semi)
		return &ReturnStmt{P: t.Pos, Value: val}
	case KwRead:
		p.next()
		p.expect(LParen)
		name := p.expect(IDENT)
		p.expect(RParen)
		p.expect(Semi)
		return &ReadStmt{P: t.Pos, Name: name.Text}
	case KwWrite:
		p.next()
		p.expect(LParen)
		val := p.parseExpr()
		p.expect(RParen)
		p.expect(Semi)
		return &WriteStmt{P: t.Pos, Value: val}
	case KwCall:
		p.next()
		name := p.expect(IDENT)
		c := &CallStmt{P: t.Pos, Name: name.Text}
		p.expect(LParen)
		if p.peek().Kind != RParen {
			for {
				c.Args = append(c.Args, p.parseExpr())
				if p.peek().Kind != Comma {
					break
				}
				p.next()
			}
		}
		p.expect(RParen)
		p.expect(Semi)
		return c
	case KwProc:
		p.errorf(t.Pos, "procedure declarations are only allowed at the top level")
		p.next()
		return &EmptyStmt{P: t.Pos}
	case Semi:
		p.next()
		return &EmptyStmt{P: t.Pos}
	default:
		p.errorf(t.Pos, "expected statement, found %s", t)
		p.next()
		return &EmptyStmt{P: t.Pos}
	}
}

func (p *Parser) parseLabeled() Stmt {
	name := p.expect(IDENT)
	p.expect(Colon)
	inner := p.parseStmt()
	l := &LabeledStmt{P: name.Pos, Label: name.Text, Stmt: inner}
	if p.labels == nil {
		return l // ParseStmt: no label scope
	}
	if _, dup := p.labels[name.Text]; dup {
		p.errorf(name.Pos, "duplicate label %q", name.Text)
	} else {
		p.labels[name.Text] = l
	}
	return l
}

// parseProc parses one top-level procedure declaration:
//
//	proc name(a, b) { body }
//
// The body parses in its own label scope; nested proc declarations
// are rejected by parseStmt (KwProc is not a statement keyword).
func (p *Parser) parseProc() *ProcDecl {
	t := p.expect(KwProc)
	name := p.expect(IDENT)
	d := &ProcDecl{P: t.Pos, Name: name.Text, Labels: map[string]*LabeledStmt{}}
	p.expect(LParen)
	if p.peek().Kind != RParen {
		for {
			d.Params = append(d.Params, p.expect(IDENT).Text)
			if p.peek().Kind != Comma {
				break
			}
			p.next()
		}
	}
	p.expect(RParen)
	p.expect(LBrace)
	outer := p.labels
	p.labels = d.Labels
	for p.err == nil && p.peek().Kind != RBrace {
		if p.peek().Kind == EOF {
			p.errorf(t.Pos, "unterminated procedure body (missing '}')")
			break
		}
		d.Body = append(d.Body, p.parseStmt())
	}
	p.labels = outer
	p.expect(RBrace)
	return d
}

func (p *Parser) parseAssign() Stmt {
	name := p.expect(IDENT)
	p.expect(Assign)
	val := p.parseExpr()
	p.expect(Semi)
	return &AssignStmt{P: name.Pos, Name: name.Text, Value: val}
}

func (p *Parser) parseIf() Stmt {
	t := p.expect(KwIf)
	p.expect(LParen)
	cond := p.parseExpr()
	p.expect(RParen)
	then := p.parseStmt()
	var els Stmt
	if p.peek().Kind == KwElse {
		p.next()
		els = p.parseStmt()
	}
	return &IfStmt{P: t.Pos, Cond: cond, Then: then, Else: els}
}

func (p *Parser) parseWhile() Stmt {
	t := p.expect(KwWhile)
	p.expect(LParen)
	cond := p.parseExpr()
	p.expect(RParen)
	body := p.parseStmt()
	return &WhileStmt{P: t.Pos, Cond: cond, Body: body}
}

func (p *Parser) parseSwitch() Stmt {
	t := p.expect(KwSwitch)
	p.expect(LParen)
	tag := p.parseExpr()
	p.expect(RParen)
	p.expect(LBrace)
	sw := &SwitchStmt{P: t.Pos, Tag: tag}
	for p.err == nil {
		tok := p.peek()
		switch tok.Kind {
		case KwCase:
			p.next()
			c := &CaseClause{P: tok.Pos}
			for {
				c.Values = append(c.Values, p.intLit(p.expect(INT)))
				if p.peek().Kind != Comma {
					break
				}
				p.next()
			}
			p.expect(Colon)
			c.Body = p.parseCaseBody()
			sw.Cases = append(sw.Cases, c)
		case KwDefault:
			p.next()
			p.expect(Colon)
			c := &CaseClause{P: tok.Pos, IsDefault: true}
			c.Body = p.parseCaseBody()
			sw.Cases = append(sw.Cases, c)
		case RBrace:
			p.next()
			return sw
		default:
			p.errorf(tok.Pos, "expected 'case', 'default' or '}' in switch, found %s", tok)
			return sw
		}
	}
	return sw
}

// parseCaseBody parses statements until the next case, default, or the
// closing brace of the switch.
func (p *Parser) parseCaseBody() []Stmt {
	var body []Stmt
	for p.err == nil {
		switch p.peek().Kind {
		case KwCase, KwDefault, RBrace, EOF:
			return body
		}
		body = append(body, p.parseStmt())
	}
	return body
}

func (p *Parser) parseBlock() Stmt {
	t := p.expect(LBrace)
	blk := &BlockStmt{P: t.Pos}
	for p.err == nil && p.peek().Kind != RBrace {
		if p.peek().Kind == EOF {
			p.errorf(t.Pos, "unterminated block (missing '}')")
			return blk
		}
		blk.List = append(blk.List, p.parseStmt())
	}
	p.expect(RBrace)
	return blk
}

// ---------------------------------------------------------------------
// Expressions (precedence climbing).

func (p *Parser) parseExpr() Expr { return p.parseOr() }

func (p *Parser) parseOr() Expr {
	x := p.parseAnd()
	for p.peek().Kind == OrOr {
		t := p.next()
		x = &BinaryExpr{P: t.Pos, Op: "||", X: x, Y: p.parseAnd()}
	}
	return x
}

func (p *Parser) parseAnd() Expr {
	x := p.parseCmp()
	for p.peek().Kind == AndAnd {
		t := p.next()
		x = &BinaryExpr{P: t.Pos, Op: "&&", X: x, Y: p.parseCmp()}
	}
	return x
}

func (p *Parser) parseCmp() Expr {
	x := p.parseAdd()
	for {
		var op string
		switch p.peek().Kind {
		case Eq:
			op = "=="
		case Neq:
			op = "!="
		case Lt:
			op = "<"
		case Leq:
			op = "<="
		case Gt:
			op = ">"
		case Geq:
			op = ">="
		default:
			return x
		}
		t := p.next()
		x = &BinaryExpr{P: t.Pos, Op: op, X: x, Y: p.parseAdd()}
	}
}

func (p *Parser) parseAdd() Expr {
	x := p.parseMul()
	for {
		var op string
		switch p.peek().Kind {
		case Plus:
			op = "+"
		case Minus:
			op = "-"
		default:
			return x
		}
		t := p.next()
		x = &BinaryExpr{P: t.Pos, Op: op, X: x, Y: p.parseMul()}
	}
}

func (p *Parser) parseMul() Expr {
	x := p.parseUnary()
	for {
		var op string
		switch p.peek().Kind {
		case Star:
			op = "*"
		case Slash:
			op = "/"
		case Percent:
			op = "%"
		default:
			return x
		}
		t := p.next()
		x = &BinaryExpr{P: t.Pos, Op: op, X: x, Y: p.parseUnary()}
	}
}

func (p *Parser) parseUnary() Expr {
	// parseUnary is on every cycle of the expression grammar — unary
	// operators directly, parenthesized and call-argument expressions
	// through parsePrimary — so counting depth here bounds them all.
	if !p.enter(p.peek().Pos) {
		return &IntLit{P: p.peek().Pos}
	}
	defer p.leave()
	switch p.peek().Kind {
	case Not:
		t := p.next()
		return &UnaryExpr{P: t.Pos, Op: "!", X: p.parseUnary()}
	case Minus:
		t := p.next()
		return &UnaryExpr{P: t.Pos, Op: "-", X: p.parseUnary()}
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() Expr {
	t := p.peek()
	switch t.Kind {
	case INT:
		p.next()
		return &IntLit{P: t.Pos, Value: p.intLit(t)}
	case IDENT:
		p.next()
		if p.peek().Kind == LParen {
			p.next()
			call := &CallExpr{P: t.Pos, Name: t.Text}
			if p.peek().Kind != RParen {
				for {
					call.Args = append(call.Args, p.parseExpr())
					if p.peek().Kind != Comma {
						break
					}
					p.next()
				}
			}
			p.expect(RParen)
			return call
		}
		return &Ident{P: t.Pos, Name: t.Text}
	case LParen:
		p.next()
		x := p.parseExpr()
		p.expect(RParen)
		return x
	default:
		p.errorf(t.Pos, "expected expression, found %s", t)
		p.next()
		return &IntLit{P: t.Pos}
	}
}

// ---------------------------------------------------------------------
// Post-parse validation.

// validate checks context-sensitive rules: goto targets exist in the
// same procedure scope, break/continue are properly enclosed, switch
// cases are well-formed, procedure names and parameters are unique,
// every call names a declared procedure with matching arity, and
// procedure bodies neither read input (read statements, eof() calls —
// the input stream is main-only global state) nor return a value.
func (p *Parser) validate() error {
	var err error
	report := func(pos Pos, format string, args ...any) {
		if err == nil {
			err = &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
		}
	}

	var check func(labels map[string]*LabeledStmt, s Stmt, inLoop, inSwitch, inProc bool)
	check = func(labels map[string]*LabeledStmt, s Stmt, inLoop, inSwitch, inProc bool) {
		if inProc {
			for _, fn := range stmtIntrinsics(s) {
				if fn == "eof" {
					report(s.Pos(), "eof() is not allowed in a procedure body (input is read by main)")
				}
			}
		}
		if jerr := CheckJump(s, labels, inLoop, inSwitch); jerr != nil && err == nil {
			err = jerr
		}
		switch s := s.(type) {
		case *ReadStmt:
			if inProc {
				report(s.P, "read is not allowed in a procedure body (input is read by main)")
			}
		case *ReturnStmt:
			if inProc && s.Value != nil {
				report(s.P, "return with a value is not allowed in a procedure body")
			}
		case *IfStmt:
			check(labels, s.Then, inLoop, inSwitch, inProc)
			check(labels, s.Else, inLoop, inSwitch, inProc)
		case *WhileStmt:
			check(labels, s.Body, true, false, inProc)
		case *SwitchStmt:
			seen := map[int64]bool{}
			defaults := 0
			for _, c := range s.Cases {
				if c.IsDefault {
					defaults++
					if defaults > 1 {
						report(c.P, "multiple default clauses in switch")
					}
				}
				for _, v := range c.Values {
					if seen[v] {
						report(c.P, "duplicate case value %d", v)
					}
					seen[v] = true
				}
				for _, st := range c.Body {
					check(labels, st, inLoop, true, inProc)
				}
			}
		case *BlockStmt:
			for _, st := range s.List {
				check(labels, st, inLoop, inSwitch, inProc)
			}
		case *LabeledStmt:
			check(labels, s.Stmt, inLoop, inSwitch, inProc)
		}
	}

	procs := map[string]*ProcDecl{}
	for _, d := range p.prog.Procs {
		if d.Name == "main" {
			report(d.P, "procedure cannot be named %q (the top-level body is main)", d.Name)
		}
		if _, dup := procs[d.Name]; dup {
			report(d.P, "duplicate procedure %q", d.Name)
		}
		procs[d.Name] = d
		seen := map[string]bool{}
		for _, prm := range d.Params {
			if seen[prm] {
				report(d.P, "duplicate parameter %q in procedure %q", prm, d.Name)
			}
			seen[prm] = true
		}
		for _, s := range d.Body {
			check(d.Labels, s, false, false, true)
		}
	}
	for _, s := range p.prog.Body {
		check(p.prog.Labels, s, false, false, false)
	}
	WalkProgram(p.prog, func(s Stmt) {
		c, ok := s.(*CallStmt)
		if !ok {
			return
		}
		d, declared := procs[c.Name]
		if !declared {
			report(c.P, "call to undefined procedure %q", c.Name)
			return
		}
		if len(c.Args) != len(d.Params) {
			report(c.P, "call to %q has %d arguments, want %d", c.Name, len(c.Args), len(d.Params))
		}
	})
	return err
}

// CheckJump applies the jump-scope rule to s, a statement of the scope
// whose labels are given, inside a loop if inLoop and inside a switch
// if inSwitch: a goto's label must exist, break must be inside a loop
// or a switch, and continue inside a loop. It returns nil for every
// other statement. Parse checks every statement with it, and
// incremental.SpliceLine the statement it splices.
func CheckJump(s Stmt, labels map[string]*LabeledStmt, inLoop, inSwitch bool) error {
	switch s := s.(type) {
	case *GotoStmt:
		if _, ok := labels[s.Label]; !ok {
			return &SyntaxError{Pos: s.P, Msg: fmt.Sprintf("goto to undefined label %q", s.Label)}
		}
	case *BreakStmt:
		if !inLoop && !inSwitch {
			return &SyntaxError{Pos: s.P, Msg: "break outside loop or switch"}
		}
	case *ContinueStmt:
		if !inLoop {
			return &SyntaxError{Pos: s.P, Msg: "continue outside loop"}
		}
	}
	return nil
}

// stmtIntrinsics returns the intrinsic functions called directly by
// one statement's expressions (not through nested statements).
func stmtIntrinsics(s Stmt) []string {
	switch s := s.(type) {
	case *AssignStmt:
		return ExprCalls(nil, s.Value)
	case *WriteStmt:
		return ExprCalls(nil, s.Value)
	case *IfStmt:
		return ExprCalls(nil, s.Cond)
	case *WhileStmt:
		return ExprCalls(nil, s.Cond)
	case *SwitchStmt:
		return ExprCalls(nil, s.Tag)
	case *ReturnStmt:
		return ExprCalls(nil, s.Value)
	case *CallStmt:
		var out []string
		for _, a := range s.Args {
			out = ExprCalls(out, a)
		}
		return out
	}
	return nil
}
