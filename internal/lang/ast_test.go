package lang

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestUsesAndDef(t *testing.T) {
	p := MustParse(`
read(x);
y = x + z * x;
write(y - w);
if (a < b) c = 1;
while (n > 0) n = n - 1;
switch (tag) { case 1: ; }
return r + 1;`)
	cases := []struct {
		idx     int
		wantDef string
		wantUse []string
	}{
		{0, "x", nil},
		{1, "y", []string{"x", "z"}},
		{2, "", []string{"w", "y"}},
		{3, "", []string{"a", "b"}},
		{4, "", []string{"n"}},
		{5, "", []string{"tag"}},
		{6, "", []string{"r"}},
	}
	for _, c := range cases {
		s := p.Body[c.idx]
		if got := Def(s); got != c.wantDef {
			t.Errorf("Def(stmt %d) = %q, want %q", c.idx, got, c.wantDef)
		}
		if got := Uses(s); !reflect.DeepEqual(got, c.wantUse) {
			t.Errorf("Uses(stmt %d) = %v, want %v", c.idx, got, c.wantUse)
		}
	}
}

func TestUsesThroughLabel(t *testing.T) {
	p := MustParse("L: x = y + 1; goto L;")
	if got := Def(p.Body[0]); got != "x" {
		t.Errorf("Def = %q, want x", got)
	}
	if got := Uses(p.Body[0]); !reflect.DeepEqual(got, []string{"y"}) {
		t.Errorf("Uses = %v, want [y]", got)
	}
}

func TestExprVarSetDeduplicatesAndSorts(t *testing.T) {
	p := MustParse("x = b + a + b + a * b;")
	got := ExprVarSet(p.Body[0].(*AssignStmt).Value)
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("ExprVarSet = %v, want [a b]", got)
	}
}

func TestIsJump(t *testing.T) {
	p := MustParse(`
L: x = 1;
goto L;
while (1) { break; continue; }
return;
write(x);`)
	var jumps, nonJumps int
	WalkProgram(p, func(s Stmt) {
		switch s.(type) {
		case *LabeledStmt, *BlockStmt:
			return
		}
		if IsJump(s) {
			jumps++
		} else {
			nonJumps++
		}
	})
	if jumps != 4 {
		t.Errorf("found %d jumps, want 4 (goto, break, continue, return)", jumps)
	}
	if nonJumps != 3 {
		t.Errorf("found %d non-jumps, want 3 (assign, while, write)", nonJumps)
	}
}

func TestWalkVisitsLexicalOrder(t *testing.T) {
	p := MustParse(`
a = 1;
if (a) {
    b = 2;
    while (b) c = 3;
}
d = 4;`)
	var lines []int
	WalkProgram(p, func(s Stmt) {
		switch s.(type) {
		case *BlockStmt, *LabeledStmt:
			return
		}
		lines = append(lines, s.Pos().Line)
	})
	want := []int{2, 3, 4, 5, 5, 7}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("visit lines = %v, want %v", lines, want)
	}
}

func TestStmtAtLine(t *testing.T) {
	p := MustParse("a = 1;\nif (a) {\n    b = 2;\n}\nwrite(b);")
	if s := StmtAtLine(p, 3); s == nil || Def(s) != "b" {
		t.Errorf("StmtAtLine(3) = %#v, want b = 2", s)
	}
	if s := StmtAtLine(p, 2); s == nil {
		t.Error("StmtAtLine(2) = nil, want the if")
	} else if _, ok := s.(*IfStmt); !ok {
		t.Errorf("StmtAtLine(2) = %#v, want if", s)
	}
	if s := StmtAtLine(p, 99); s != nil {
		t.Errorf("StmtAtLine(99) = %#v, want nil", s)
	}
}

func TestVarNamesAndIntrinsics(t *testing.T) {
	p := MustParse("read(x); y = f1(x) + g(); while (!eof()) { z = 0; } write(y + z);")
	if got := VarNames(p); !reflect.DeepEqual(got, []string{"x", "y", "z"}) {
		t.Errorf("VarNames = %v", got)
	}
}

func TestUnlabelNested(t *testing.T) {
	p := MustParse("A: B: x = 1; goto A; goto B;")
	inner := Unlabel(p.Body[0])
	if _, ok := inner.(*AssignStmt); !ok {
		t.Errorf("Unlabel = %#v, want assignment", inner)
	}
}

// Property: ExprVarSet output is always sorted and duplicate-free,
// for arbitrary expressions built from a small grammar.
func TestExprVarSetSortedProperty(t *testing.T) {
	varPool := []string{"a", "b", "c", "d", "e"}
	// build deterministically from a seed path
	var build func(seed uint64, depth int) Expr
	build = func(seed uint64, depth int) Expr {
		if depth <= 0 || seed%5 == 0 {
			return &Ident{Name: varPool[seed%uint64(len(varPool))]}
		}
		switch seed % 4 {
		case 0:
			return &IntLit{Value: int64(seed % 100)}
		case 1:
			return &UnaryExpr{Op: "!", X: build(seed/4, depth-1)}
		case 2:
			return &CallExpr{Name: "f", Args: []Expr{build(seed/4, depth-1), build(seed/7, depth-1)}}
		default:
			return &BinaryExpr{Op: "+", X: build(seed/4, depth-1), Y: build(seed/9, depth-1)}
		}
	}
	f := func(seed uint64) bool {
		e := build(seed, 6)
		set := ExprVarSet(e)
		for i := 1; i < len(set); i++ {
			if set[i-1] >= set[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
