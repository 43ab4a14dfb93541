package lang

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeSimpleAssignment(t *testing.T) {
	toks, err := Tokenize("x = x + 1;")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	want := []TokenKind{IDENT, Assign, IDENT, Plus, INT, Semi}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestTokenizeKeywordsVsIdents(t *testing.T) {
	toks, err := Tokenize("while whilex if iffy goto gotoL break continue return read write switch case default else")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	want := []TokenKind{KwWhile, IDENT, KwIf, IDENT, KwGoto, IDENT, KwBreak,
		KwContinue, KwReturn, KwRead, KwWrite, KwSwitch, KwCase, KwDefault, KwElse}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestTokenizeTwoCharOperators(t *testing.T) {
	toks, err := Tokenize("== != <= >= && || < > = !")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	want := []TokenKind{Eq, Neq, Leq, Geq, AndAnd, OrOr, Lt, Gt, Assign, Not}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestTokenizePositions(t *testing.T) {
	src := "x = 1;\n  y = 2;"
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	if toks[0].Pos != (Pos{Line: 1, Col: 1}) {
		t.Errorf("x at %v, want 1:1", toks[0].Pos)
	}
	// "y" is the 5th token (x = 1 ; y ...), at line 2 col 3.
	if toks[4].Pos != (Pos{Line: 2, Col: 3}) {
		t.Errorf("y at %v, want 2:3", toks[4].Pos)
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, err := Tokenize("x = 1; // trailing\n/* block\ncomment */ y = 2;")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	if len(toks) != 8 {
		t.Fatalf("got %d tokens %v, want 8", len(toks), toks)
	}
	if toks[4].Text != "y" {
		t.Errorf("token after comments = %v, want y", toks[4])
	}
	// The block comment spans lines, so y is on line 3.
	if toks[4].Pos.Line != 3 {
		t.Errorf("y line = %d, want 3", toks[4].Pos.Line)
	}
}

func TestTokenizeErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"x = 1 @ 2;", "unexpected character"},
		{"x = a & b;", "did you mean '&&'"},
		{"x = a | b;", "did you mean '||'"},
		{"/* unterminated", "unterminated block comment"},
		{"x = 1;\x00y = 2;", "unexpected NUL byte"},
		{"x = 1; // \x00", "unexpected NUL byte"},
	}
	for _, c := range cases {
		_, err := Tokenize(c.src)
		if err == nil {
			t.Errorf("Tokenize(%q): expected error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Tokenize(%q): error %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

// TestParseRejectsNUL: a NUL byte once ended the input silently, so
// Parse accepted the program before it and dropped the rest.
func TestParseRejectsNUL(t *testing.T) {
	if _, err := Parse("x = 1;\x00y = ;"); err == nil {
		t.Fatal("Parse accepted a program cut short by a NUL byte")
	}
}

func TestTokenizeEmptyAndWhitespace(t *testing.T) {
	for _, src := range []string{"", "   ", "\n\n\t", "// just a comment"} {
		toks, err := Tokenize(src)
		if err != nil {
			t.Errorf("Tokenize(%q): %v", src, err)
		}
		if len(toks) != 0 {
			t.Errorf("Tokenize(%q) = %v, want none", src, toks)
		}
	}
}

func TestLexerEOFIsSticky(t *testing.T) {
	lx := NewLexer("x")
	if tok := lx.Next(); tok.Kind != IDENT {
		t.Fatalf("first token %v", tok)
	}
	for i := 0; i < 3; i++ {
		if tok := lx.Next(); tok.Kind != EOF {
			t.Fatalf("token after end: %v", tok)
		}
	}
}

// TestLexerNeverPanics: arbitrary byte strings either tokenize or
// produce a SyntaxError — never a panic — and the lexer terminates.
func TestLexerNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %q: %v", data, r)
			}
		}()
		lx := NewLexer(string(data))
		for i := 0; i < len(data)+10; i++ {
			if tok := lx.Next(); tok.Kind == EOF {
				return true
			}
		}
		// Progress guarantee: at most one token per input byte.
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestParserNeverPanics: arbitrary byte strings either parse or error.
func TestParserNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %q: %v", data, r)
			}
		}()
		_, _ = Parse(string(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
