package lang

import "sort"

// Node is the interface shared by all AST nodes. Every node records
// the source position of its first token; the position's line number
// is the statement identifier used throughout the slicer (slicing
// criteria are (variable, line) pairs, as in the paper).
type Node interface {
	Pos() Pos
}

// Expr is an expression node. Expressions are side-effect free:
// intrinsic calls such as f1(x) or eof() are treated as pure, opaque
// functions exactly as the paper's example programs do.
type Expr interface {
	Node
	exprNode()
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// ---------------------------------------------------------------------
// Expressions.

// IntLit is an integer literal.
type IntLit struct {
	P     Pos
	Value int64
}

// Ident is a variable reference.
type Ident struct {
	P    Pos
	Name string
}

// CallExpr is a call to an intrinsic (uninterpreted) function, e.g.
// f1(x) or eof(). The language has no user-defined functions; calls
// model the opaque computations of the paper's examples.
type CallExpr struct {
	P    Pos
	Name string
	Args []Expr
}

// UnaryExpr is a unary operation: "!" (logical not) or "-" (negation).
type UnaryExpr struct {
	P  Pos
	Op string
	X  Expr
}

// BinaryExpr is a binary operation. Op is one of
// + - * / % < <= > >= == != && ||. Operands are integers with C
// truthiness: zero is false, anything else is true; comparisons and
// logical operators yield 0 or 1.
type BinaryExpr struct {
	P    Pos
	Op   string
	X, Y Expr
}

// Pos implementations for expressions.
func (e *IntLit) Pos() Pos     { return e.P }
func (e *Ident) Pos() Pos      { return e.P }
func (e *CallExpr) Pos() Pos   { return e.P }
func (e *UnaryExpr) Pos() Pos  { return e.P }
func (e *BinaryExpr) Pos() Pos { return e.P }

func (*IntLit) exprNode()     {}
func (*Ident) exprNode()      {}
func (*CallExpr) exprNode()   {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}

// ---------------------------------------------------------------------
// Statements.

// AssignStmt is "name = value;".
type AssignStmt struct {
	P     Pos
	Name  string
	Value Expr
}

// ReadStmt is "read(name);" — it defines name from the input stream.
type ReadStmt struct {
	P    Pos
	Name string
}

// WriteStmt is "write(value);" — it uses the variables of value.
type WriteStmt struct {
	P     Pos
	Value Expr
}

// IfStmt is "if (cond) then [else els]". Else is nil when absent.
type IfStmt struct {
	P    Pos
	Cond Expr
	Then Stmt
	Else Stmt
}

// WhileStmt is "while (cond) body".
type WhileStmt struct {
	P    Pos
	Cond Expr
	Body Stmt
}

// SwitchStmt is a C-style switch with fall-through between cases:
// control runs off the end of one case body into the next unless a
// jump (typically break) intervenes. This is what makes the paper's
// Figure 14 interesting.
type SwitchStmt struct {
	P     Pos
	Tag   Expr
	Cases []*CaseClause
}

// CaseClause is one "case v1, v2: stmts" or "default: stmts" arm of a
// switch.
type CaseClause struct {
	P         Pos
	Values    []int64 // nil for default
	IsDefault bool
	Body      []Stmt
}

// Pos returns the position of the clause's case/default keyword.
func (c *CaseClause) Pos() Pos { return c.P }

// BlockStmt is "{ stmts }".
type BlockStmt struct {
	P    Pos
	List []Stmt
}

// GotoStmt is "goto label;".
type GotoStmt struct {
	P     Pos
	Label string
}

// BreakStmt is "break;" — it exits the innermost enclosing loop or
// switch, like C.
type BreakStmt struct {
	P Pos
}

// ContinueStmt is "continue;" — it jumps to the condition re-test of
// the innermost enclosing while loop, like C.
type ContinueStmt struct {
	P Pos
}

// ReturnStmt is "return;" or "return value;" — it jumps to the
// program's exit. Value, when present, is the program's result.
type ReturnStmt struct {
	P     Pos
	Value Expr // may be nil
}

// CallStmt is "call p(a1, a2);" — a procedure call with value-result
// parameter passing: argument expressions are copied into the callee's
// formals on entry, and on return the final formal values are copied
// back into the arguments that are plain variables. Arguments that are
// not plain identifiers (literals, compound expressions) are inputs
// only. When the same variable appears as more than one argument, the
// copy-out of the last occurrence wins, matching left-to-right
// copy-back order.
type CallStmt struct {
	P    Pos
	Name string
	Args []Expr
}

// LabeledStmt is "label: stmt". Labels are program-unique and are
// goto targets.
type LabeledStmt struct {
	P     Pos
	Label string
	Stmt  Stmt
}

// EmptyStmt is a lone ";". cfg.Build gives it a skip node, so it
// takes a statement ordinal like any simple statement; it exists so
// retargeted labels can be printed at positions with no remaining
// statement ("L14:" before the end of a slice).
type EmptyStmt struct {
	P Pos
}

// Pos implementations for statements.
func (s *AssignStmt) Pos() Pos   { return s.P }
func (s *ReadStmt) Pos() Pos     { return s.P }
func (s *WriteStmt) Pos() Pos    { return s.P }
func (s *IfStmt) Pos() Pos       { return s.P }
func (s *WhileStmt) Pos() Pos    { return s.P }
func (s *SwitchStmt) Pos() Pos   { return s.P }
func (s *BlockStmt) Pos() Pos    { return s.P }
func (s *GotoStmt) Pos() Pos     { return s.P }
func (s *BreakStmt) Pos() Pos    { return s.P }
func (s *ContinueStmt) Pos() Pos { return s.P }
func (s *ReturnStmt) Pos() Pos   { return s.P }
func (s *CallStmt) Pos() Pos     { return s.P }
func (s *LabeledStmt) Pos() Pos  { return s.P }
func (s *EmptyStmt) Pos() Pos    { return s.P }

func (*AssignStmt) stmtNode()   {}
func (*ReadStmt) stmtNode()     {}
func (*WriteStmt) stmtNode()    {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*SwitchStmt) stmtNode()   {}
func (*BlockStmt) stmtNode()    {}
func (*GotoStmt) stmtNode()     {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ReturnStmt) stmtNode()   {}
func (*CallStmt) stmtNode()     {}
func (*LabeledStmt) stmtNode()  {}
func (*EmptyStmt) stmtNode()    {}

// IsJump reports whether s is one of the paper's jump statements:
// goto, break, continue, or return.
func IsJump(s Stmt) bool {
	switch s.(type) {
	case *GotoStmt, *BreakStmt, *ContinueStmt, *ReturnStmt:
		return true
	}
	return false
}

// ProcDecl is a procedure declaration:
//
//	proc name(a, b) { body }
//
// Parameters are integer variables passed value-result. Procedure
// bodies use the statement language unchanged — including every jump
// statement; a plain "return;" jumps to the procedure's exit — except
// that read statements and eof() calls are main-only (the input stream
// is global state a callee must not consume invisibly). A ProcDecl is
// a top-level declaration, not a statement: procedures do not nest.
type ProcDecl struct {
	P      Pos
	Name   string
	Params []string
	Body   []Stmt
	// Labels indexes the labels of this procedure's body. Label names
	// are scoped per procedure: a goto may only target a label in the
	// same procedure, and the same name may appear in different
	// procedures.
	Labels map[string]*LabeledStmt
}

// Pos returns the position of the proc keyword.
func (d *ProcDecl) Pos() Pos { return d.P }

// Program is a parsed program: a top-level statement sequence (the
// implicit main procedure) plus the label index built during parsing.
// Programs with procedure declarations also carry Procs; a program
// without them is exactly the single-procedure language of the paper.
type Program struct {
	Body []Stmt
	// Labels maps each label name of the main body to the labeled
	// statement carrying it. Parsing guarantees labels are unique
	// within their procedure and every goto target exists.
	Labels map[string]*LabeledStmt
	// Procs holds the procedure declarations in source order; nil for
	// single-procedure programs.
	Procs []*ProcDecl
}

// Proc returns the declaration of the named procedure, or nil.
func (p *Program) Proc(name string) *ProcDecl {
	for _, d := range p.Procs {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Expression analysis helpers.

// ExprVars appends the names of all variables referenced by e to dst
// and returns the extended slice. Names may repeat.
func ExprVars(dst []string, e Expr) []string {
	switch e := e.(type) {
	case nil:
		return dst
	case *IntLit:
		return dst
	case *Ident:
		return append(dst, e.Name)
	case *CallExpr:
		for _, a := range e.Args {
			dst = ExprVars(dst, a)
		}
		return dst
	case *UnaryExpr:
		return ExprVars(dst, e.X)
	case *BinaryExpr:
		return ExprVars(ExprVars(dst, e.X), e.Y)
	}
	return dst
}

// ExprVarSet returns the sorted, de-duplicated set of variable names
// referenced by e.
func ExprVarSet(e Expr) []string {
	names := ExprVars(nil, e)
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	out := names[:1]
	for _, n := range names[1:] {
		if n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out
}

// ExprCalls appends the names of all intrinsic functions called by e.
func ExprCalls(dst []string, e Expr) []string {
	switch e := e.(type) {
	case nil:
		return dst
	case *CallExpr:
		dst = append(dst, e.Name)
		for _, a := range e.Args {
			dst = ExprCalls(dst, a)
		}
		return dst
	case *UnaryExpr:
		return ExprCalls(dst, e.X)
	case *BinaryExpr:
		return ExprCalls(ExprCalls(dst, e.X), e.Y)
	}
	return dst
}

// ExprEqual reports whether two expressions are structurally equal,
// ignoring source positions. A nil expression equals only nil.
func ExprEqual(a, b Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	switch a := a.(type) {
	case *IntLit:
		b, ok := b.(*IntLit)
		return ok && a.Value == b.Value
	case *Ident:
		b, ok := b.(*Ident)
		return ok && a.Name == b.Name
	case *CallExpr:
		b, ok := b.(*CallExpr)
		if !ok || a.Name != b.Name || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !ExprEqual(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	case *UnaryExpr:
		b, ok := b.(*UnaryExpr)
		return ok && a.Op == b.Op && ExprEqual(a.X, b.X)
	case *BinaryExpr:
		b, ok := b.(*BinaryExpr)
		return ok && a.Op == b.Op && ExprEqual(a.X, b.X) && ExprEqual(a.Y, b.Y)
	}
	return false
}

// Uses returns the sorted set of variables a statement reads directly
// (not through nested statements): the right-hand side of an
// assignment, the argument of write, the condition of if/while, the
// tag of switch, or the value of return.
func Uses(s Stmt) []string {
	switch s := s.(type) {
	case *AssignStmt:
		return ExprVarSet(s.Value)
	case *WriteStmt:
		return ExprVarSet(s.Value)
	case *IfStmt:
		return ExprVarSet(s.Cond)
	case *WhileStmt:
		return ExprVarSet(s.Cond)
	case *SwitchStmt:
		return ExprVarSet(s.Tag)
	case *ReturnStmt:
		return ExprVarSet(s.Value)
	case *CallStmt:
		var names []string
		for _, a := range s.Args {
			names = ExprVars(names, a)
		}
		return sortedSet(names)
	case *LabeledStmt:
		return Uses(s.Stmt)
	}
	return nil
}

// sortedSet sorts and de-duplicates names in place.
func sortedSet(names []string) []string {
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	out := names[:1]
	for _, n := range names[1:] {
		if n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out
}

// CallCopyOuts returns the indices of c's arguments that receive a
// copy-out under value-result passing: plain identifier arguments,
// keeping only the last occurrence of each variable (the copy-backs
// run left to right, so the last write wins).
func CallCopyOuts(c *CallStmt) []int {
	last := map[string]int{}
	for i, a := range c.Args {
		if id, ok := a.(*Ident); ok {
			last[id.Name] = i
		}
	}
	if len(last) == 0 {
		return nil
	}
	out := make([]int, 0, len(last))
	for _, i := range last {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// CallOutVars returns the sorted set of variables a call statement
// defines: its plain-identifier arguments (value-result copy-out).
func CallOutVars(c *CallStmt) []string {
	var names []string
	for _, a := range c.Args {
		if id, ok := a.(*Ident); ok {
			names = append(names, id.Name)
		}
	}
	return sortedSet(names)
}

// Def returns the variable a statement defines directly, or "" if it
// defines none. Only assignments and reads define variables.
func Def(s Stmt) string {
	switch s := s.(type) {
	case *AssignStmt:
		return s.Name
	case *ReadStmt:
		return s.Name
	case *LabeledStmt:
		return Def(s.Stmt)
	}
	return ""
}

// Unlabel strips any LabeledStmt wrappers and returns the underlying
// statement. Multiple labels on one statement nest, so this loops.
func Unlabel(s Stmt) Stmt {
	for {
		l, ok := s.(*LabeledStmt)
		if !ok {
			return s
		}
		s = l.Stmt
	}
}

// Walk calls fn for every statement in the subtree rooted at s,
// including s itself, in lexical (source) order. LabeledStmt wrappers
// are visited before their inner statement.
func Walk(s Stmt, fn func(Stmt)) {
	if s == nil {
		return
	}
	fn(s)
	switch s := s.(type) {
	case *IfStmt:
		Walk(s.Then, fn)
		Walk(s.Else, fn)
	case *WhileStmt:
		Walk(s.Body, fn)
	case *SwitchStmt:
		for _, c := range s.Cases {
			for _, st := range c.Body {
				Walk(st, fn)
			}
		}
	case *BlockStmt:
		for _, st := range s.List {
			Walk(st, fn)
		}
	case *LabeledStmt:
		Walk(s.Stmt, fn)
	}
}

// WalkProgram calls fn for every statement of p in lexical order:
// procedure bodies in declaration order, then the main body.
func WalkProgram(p *Program, fn func(Stmt)) {
	for _, d := range p.Procs {
		for _, s := range d.Body {
			Walk(s, fn)
		}
	}
	for _, s := range p.Body {
		Walk(s, fn)
	}
}

// Statements returns every statement of p in lexical order, excluding
// LabeledStmt wrappers and empty statements (which have no dynamic
// behaviour of their own).
func Statements(p *Program) []Stmt {
	var out []Stmt
	WalkProgram(p, func(s Stmt) {
		if listed(s) {
			out = append(out, s)
		}
	})
	return out
}

// CountStatements returns len(Statements(p)) without building the
// list.
func CountStatements(p *Program) int {
	n := 0
	WalkProgram(p, func(s Stmt) {
		if listed(s) {
			n++
		}
	})
	return n
}

// listed reports whether Statements lists s: wrappers, blocks and
// empty statements have no behaviour of their own.
func listed(s Stmt) bool {
	switch s.(type) {
	case *LabeledStmt, *EmptyStmt, *BlockStmt:
		return false
	}
	return true
}

// StmtAtLine returns the first non-wrapper statement whose position is
// on the given source line, or nil. Compound statements match on the
// line of their keyword (the paper numbers an if or while by its
// predicate's line).
func StmtAtLine(p *Program, line int) Stmt {
	var found Stmt
	WalkProgram(p, func(s Stmt) {
		if found != nil {
			return
		}
		switch s.(type) {
		case *LabeledStmt, *EmptyStmt, *BlockStmt:
			return
		}
		if s.Pos().Line == line {
			found = s
		}
	})
	return found
}

// VarNames returns the sorted set of all variable names appearing
// anywhere in the program (used or defined).
func VarNames(p *Program) []string {
	seen := map[string]bool{}
	WalkProgram(p, func(s Stmt) {
		if d := Def(s); d != "" {
			seen[d] = true
		}
		for _, u := range Uses(s) {
			seen[u] = true
		}
	})
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
