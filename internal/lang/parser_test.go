package lang

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestParseAssignmentAndIO(t *testing.T) {
	p, err := Parse("read(x); y = x * 2 + 1; write(y);")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.Body) != 3 {
		t.Fatalf("got %d statements, want 3", len(p.Body))
	}
	if r, ok := p.Body[0].(*ReadStmt); !ok || r.Name != "x" {
		t.Errorf("stmt 0 = %#v, want read(x)", p.Body[0])
	}
	a, ok := p.Body[1].(*AssignStmt)
	if !ok || a.Name != "y" {
		t.Fatalf("stmt 1 = %#v, want assignment to y", p.Body[1])
	}
	if got := ExprString(a.Value); got != "x * 2 + 1" {
		t.Errorf("rhs = %q, want \"x * 2 + 1\"", got)
	}
	if w, ok := p.Body[2].(*WriteStmt); !ok || ExprString(w.Value) != "y" {
		t.Errorf("stmt 2 = %#v, want write(y)", p.Body[2])
	}
}

func TestParseIfElseChain(t *testing.T) {
	p, err := Parse(`
if (x <= 0)
    s = s + f1(x);
else {
    c = c + 1;
    if (x % 2 == 0) s = s + f2(x); else s = s + f3(x);
}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	outer, ok := p.Body[0].(*IfStmt)
	if !ok {
		t.Fatalf("stmt 0 = %#v, want if", p.Body[0])
	}
	if outer.Else == nil {
		t.Fatal("outer if has no else")
	}
	blk, ok := outer.Else.(*BlockStmt)
	if !ok || len(blk.List) != 2 {
		t.Fatalf("else = %#v, want 2-statement block", outer.Else)
	}
	inner, ok := blk.List[1].(*IfStmt)
	if !ok || inner.Else == nil {
		t.Fatalf("nested statement = %#v, want if/else", blk.List[1])
	}
}

func TestParseWhileAndJumps(t *testing.T) {
	p, err := Parse(`
while (!eof()) {
    read(x);
    if (x < 0) continue;
    if (x == 0) break;
    total = total + x;
}
return total;`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	w, ok := p.Body[0].(*WhileStmt)
	if !ok {
		t.Fatalf("stmt 0 = %#v, want while", p.Body[0])
	}
	body := w.Body.(*BlockStmt)
	if _, ok := body.List[1].(*IfStmt).Then.(*ContinueStmt); !ok {
		t.Error("expected continue in first if")
	}
	if _, ok := body.List[2].(*IfStmt).Then.(*BreakStmt); !ok {
		t.Error("expected break in second if")
	}
	r, ok := p.Body[1].(*ReturnStmt)
	if !ok || r.Value == nil {
		t.Fatalf("stmt 1 = %#v, want return with value", p.Body[1])
	}
}

func TestParseGotoAndLabels(t *testing.T) {
	p, err := Parse(`
s = 0;
L1: if (eof()) goto L2;
read(x);
s = s + x;
goto L1;
L2: write(s);`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.Labels) != 2 {
		t.Fatalf("labels = %v, want L1 and L2", p.Labels)
	}
	l1 := p.Labels["L1"]
	if l1 == nil {
		t.Fatal("label L1 missing")
	}
	iff, ok := l1.Stmt.(*IfStmt)
	if !ok {
		t.Fatalf("L1 labels %#v, want if", l1.Stmt)
	}
	if g, ok := iff.Then.(*GotoStmt); !ok || g.Label != "L2" {
		t.Errorf("then-branch = %#v, want goto L2", iff.Then)
	}
}

func TestParseSwitch(t *testing.T) {
	p, err := Parse(`
switch (c()) {
case 1:
    x = f1();
    break;
case 2, 3:
    y = f2();
default:
    z = f3();
}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sw, ok := p.Body[0].(*SwitchStmt)
	if !ok {
		t.Fatalf("stmt 0 = %#v, want switch", p.Body[0])
	}
	if len(sw.Cases) != 3 {
		t.Fatalf("got %d cases, want 3", len(sw.Cases))
	}
	if len(sw.Cases[0].Body) != 2 {
		t.Errorf("case 1 body has %d statements, want 2", len(sw.Cases[0].Body))
	}
	if got := sw.Cases[1].Values; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("case 2 values = %v, want [2 3]", got)
	}
	if !sw.Cases[2].IsDefault {
		t.Error("third clause should be default")
	}
}

func TestParseExprPrecedence(t *testing.T) {
	cases := []struct{ src, want string }{
		{"x = a + b * c;", "a + b * c"},
		{"x = (a + b) * c;", "(a + b) * c"},
		{"x = a < b && c < d || e;", "a < b && c < d || e"},
		{"x = !(a == b);", "!(a == b)"},
		{"x = -a + b;", "-a + b"},
		{"x = a - (b - c);", "a - (b - c)"},
		{"x = a % 2 == 0;", "a % 2 == 0"},
		{"x = f(a, b + 1, g());", "f(a, b + 1, g())"},
	}
	for _, c := range cases {
		p, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		got := ExprString(p.Body[0].(*AssignStmt).Value)
		if got != c.want {
			t.Errorf("Parse(%q) prints %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, wantSub string }{
		{"x = ;", "expected expression"},
		{"if x > 0) y = 1;", "expected '('"},
		{"goto;", "expected identifier"},
		{"goto Nowhere;", "undefined label"},
		{"break;", "break outside loop or switch"},
		{"continue;", "continue outside loop"},
		{"while (1) { continue; } continue;", "continue outside loop"},
		{"switch (x) { continue; }", "expected 'case'"},
		{"switch (x) { case 1: continue; }", "continue outside loop"},
		{"L: x = 1; L: y = 2;", "duplicate label"},
		{"switch (x) { case 1: ; case 1: ; }", "duplicate case value"},
		{"switch (x) { default: ; default: ; }", "multiple default"},
		{"{ x = 1;", "unterminated block"},
		{"else x = 1;", "expected statement"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q): error %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

// TestParseIntLiteralRange: a literal outside int64 is a syntax error
// at the literal, not a silent zero. A negative literal is unary minus
// applied to a positive one, so the most negative int64 cannot be
// written as a literal either.
func TestParseIntLiteralRange(t *testing.T) {
	p := MustParse("x = 9223372036854775807; y = -9223372036854775807;")
	if v := p.Body[0].(*AssignStmt).Value.(*IntLit).Value; v != math.MaxInt64 {
		t.Errorf("max literal = %d, want %d", v, int64(math.MaxInt64))
	}
	for _, c := range []struct {
		src string
		pos Pos
	}{
		{"x = 99999999999999999999;", Pos{Line: 1, Col: 5}},
		{"x = 9223372036854775808;", Pos{Line: 1, Col: 5}},
		{"x = -9223372036854775808;", Pos{Line: 1, Col: 6}},
		{"y = 1;\nwrite(2 + 18446744073709551616);", Pos{Line: 2, Col: 11}},
		{"switch (x) {\ncase 1, 99999999999999999999: ;\n}", Pos{Line: 2, Col: 9}},
	} {
		_, err := Parse(c.src)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("Parse(%q) error = %v, want a *SyntaxError", c.src, err)
			continue
		}
		if se.Pos != c.pos || !strings.Contains(se.Msg, "out of range") {
			t.Errorf("Parse(%q) error = %v, want \"out of range\" at %v", c.src, err, c.pos)
		}
	}
}

func TestParseBreakInsideSwitchInsideLoop(t *testing.T) {
	// break binds to the switch; continue still binds to the loop.
	_, err := Parse(`
while (1) {
    switch (x) {
    case 1: break;
    case 2: continue;
    }
    break;
}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
}

func TestParseLabelOnCompound(t *testing.T) {
	p, err := Parse("Top: while (x < 10) x = x + 1; goto Top;")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, ok := Unlabel(p.Body[0]).(*WhileStmt); !ok {
		t.Errorf("labeled statement = %#v, want while", p.Body[0])
	}
}

func TestMustParsePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on invalid source")
		}
	}()
	MustParse("x = ;")
}

func TestStatementLinesMatchSource(t *testing.T) {
	src := "a = 1;\nb = 2;\nwhile (a < b) {\n    a = a + 1;\n}\nwrite(a);"
	p := MustParse(src)
	wantLines := map[int]bool{1: true, 2: true, 3: true, 4: true, 6: true}
	stmts := Statements(p)
	if len(stmts) != len(wantLines) {
		t.Fatalf("got %d statements, want %d", len(stmts), len(wantLines))
	}
	for _, s := range stmts {
		if !wantLines[s.Pos().Line] {
			t.Errorf("unexpected statement line %d (%s)", s.Pos().Line, StmtString(s))
		}
	}
}
