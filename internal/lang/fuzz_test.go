package lang

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse drives the lexer and recursive-descent parser with
// arbitrary source. The invariants: Parse never panics or overflows
// the stack (the maxNestingDepth guard), a successful parse
// pretty-prints to source that parses again, and every AST walk over
// the result terminates.
func FuzzParse(f *testing.F) {
	files, _ := filepath.Glob("../../testdata/*.mc")
	for _, fn := range files {
		if data, err := os.ReadFile(fn); err == nil {
			f.Add(string(data))
		}
	}
	for _, s := range []string{
		"",
		"x = 1;",
		"a: b: c: x = 1; goto a;",
		"while (x < 3) { if (x) break; else continue; }",
		"switch (x) { case 1, 2: y = 1; break; default: return y; }",
		"read(x); write(f(x, y(1)));",
		"x = ((((1))));",
		"x = !!-!-1;",
		strings.Repeat("{", 64) + strings.Repeat("}", 64),
		"if (1) if (1) if (1) x = 1; else y = 2;",
		"x = 9999999999999999999999999999;",
		"x = -9223372036854775808;",
		"switch (x) { case 1, 99999999999999999999: ; }",
		"// comment only",
		"x = 1 % 0;",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		if p == nil {
			t.Fatal("Parse returned nil program and nil error")
		}
		// The printer and a re-parse must accept anything Parse
		// accepted: slices are materialized through exactly this
		// round-trip.
		out := Format(p, PrintOptions{})
		if _, err := Parse(out); err != nil {
			t.Fatalf("re-parse of formatted output failed: %v\ninput: %q\nformatted: %q", err, src, out)
		}
		// Walks must terminate; Statements filters wrappers, empties
		// and blocks out of the walk, never adds.
		n := 0
		WalkProgram(p, func(Stmt) { n++ })
		stmts := Statements(p)
		if len(stmts) > n {
			t.Fatalf("Statements len %d > WalkProgram count %d", len(stmts), n)
		}
		for _, s := range stmts {
			switch s.(type) {
			case *LabeledStmt, *EmptyStmt, *BlockStmt:
				t.Fatalf("Statements returned a wrapper/empty/block: %T", s)
			}
		}
	})
}

// FuzzParseProcedures targets the interprocedural grammar: procedure
// declarations, parameter lists, and call statements. Beyond the
// FuzzParse invariants (round-trip through the printer, terminating
// walks), a successful parse must preserve the procedure structure
// across the round trip — same declarations in order, same arity, the
// same call statements — and WalkProgram must visit every procedure
// body exactly once, so Statements covers call statements without
// double-counting.
func FuzzParseProcedures(f *testing.F) {
	files, _ := filepath.Glob("../../testdata/*.mc")
	for _, fn := range files {
		if data, err := os.ReadFile(fn); err == nil {
			f.Add(string(data))
		}
	}
	for _, s := range []string{
		"proc p() {\n}\nx = 1;",
		"proc add(s, x) {\n    s = s + x;\n}\nsum = 0;\ncall add(sum, a);\nwrite(sum);",
		"proc a(x) {\n    x = 1;\n}\nproc b(y) {\n    call a(y);\n}\ncall b(z);",
		"proc l(v) {\n    top: if (v) goto top;\n}\ncall l(w);",
		"proc s(x) {\n    switch (x) { case 1: x = 0; break; default: x = 2; }\n}\ncall s(q);",
		"call missing(x);",
		"proc p(a, a) {\n}\n",
		"proc p(x) {\n    read(x);\n}\n",
		"proc p(x) {\n}\nproc p(y) {\n}\n",
		"proc main() {\n}\ncall main();",
		"call p(1 + 2, f(x));",
		"proc deep(v) {\n    while (v) { if (v) { v = v - 1; continue; } break; }\n}\ncall deep(n);",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		out := Format(p, PrintOptions{})
		q, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parse of formatted output failed: %v\ninput: %q\nformatted: %q", err, src, out)
		}
		if len(q.Procs) != len(p.Procs) {
			t.Fatalf("round trip changed proc count %d -> %d\ninput: %q", len(p.Procs), len(q.Procs), src)
		}
		for i, d := range p.Procs {
			if q.Procs[i].Name != d.Name {
				t.Fatalf("round trip renamed proc %q -> %q", d.Name, q.Procs[i].Name)
			}
			if len(q.Procs[i].Params) != len(d.Params) {
				t.Fatalf("round trip changed arity of %s: %d -> %d", d.Name, len(d.Params), len(q.Procs[i].Params))
			}
		}
		// WalkProgram visits each proc body once, then main; a second
		// walk is deterministic.
		count := func(prog *Program) (total, calls int) {
			WalkProgram(prog, func(s Stmt) {
				total++
				if _, ok := s.(*CallStmt); ok {
					calls++
				}
			})
			return
		}
		n1, c1 := count(p)
		n2, c2 := count(p)
		if n1 != n2 || c1 != c2 {
			t.Fatalf("WalkProgram not deterministic: %d/%d then %d/%d", n1, c1, n2, c2)
		}
		qn, qc := count(q)
		if qn != n1 || qc != c1 {
			t.Fatalf("round trip changed walk counts: %d/%d -> %d/%d\ninput: %q", n1, c1, qn, qc, src)
		}
		// Statements filters wrappers but keeps every call statement.
		sc := 0
		for _, s := range Statements(p) {
			switch s.(type) {
			case *LabeledStmt, *EmptyStmt, *BlockStmt:
				t.Fatalf("Statements returned a wrapper/empty/block: %T", s)
			case *CallStmt:
				sc++
			}
		}
		if sc != c1 {
			t.Fatalf("Statements saw %d call statements, walk saw %d", sc, c1)
		}
	})
}

// FuzzTokenize pins the lexer alone: never panics, and on success
// every token has a sane position.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{"", "x = 1; // c\n", "@#$%", "x <= != ! =", "\x00\xff"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Tokenize(src)
		if err != nil {
			return
		}
		for _, tok := range toks {
			if tok.Pos.Line < 1 || tok.Pos.Col < 1 {
				t.Fatalf("token %v has non-positive position %+v", tok, tok.Pos)
			}
		}
	})
}
