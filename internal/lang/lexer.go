package lang

import "fmt"

// SyntaxError reports a lexical or parse error with its source
// position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}

// Lexer converts source text into tokens. Create one with NewLexer and
// pull tokens with Next; after the input is exhausted Next returns EOF
// tokens forever.
type Lexer struct {
	src  string
	off  int // byte offset of the next unread character
	line int
	col  int
	err  *SyntaxError // first error encountered, if any
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Err returns the first lexical error encountered, or nil.
func (lx *Lexer) Err() error {
	if lx.err == nil {
		return nil
	}
	return lx.err
}

func (lx *Lexer) errorf(pos Pos, format string, args ...any) {
	if lx.err == nil {
		lx.err = &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

// skipSpace consumes whitespace and comments. Both //-to-end-of-line
// and /* ... */ comments are supported so corpus files can carry the
// paper's annotations (e.g. "continue; /* goto line 3 */").
func (lx *Lexer) skipSpace() {
	for {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.peek() != '\n' && lx.peek() != 0 {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			for {
				if lx.peek() == 0 {
					lx.errorf(start, "unterminated block comment")
					return
				}
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return
		}
	}
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

// Next returns the next token in the input.
func (lx *Lexer) Next() Token {
	lx.skipSpace()
	pos := lx.pos()
	c := lx.peek()
	switch {
	case c == 0:
		return Token{Kind: EOF, Pos: pos}
	case isDigit(c):
		start := lx.off
		for isDigit(lx.peek()) {
			lx.advance()
		}
		return Token{Kind: INT, Text: lx.src[start:lx.off], Pos: pos}
	case isLetter(c):
		start := lx.off
		for isLetter(lx.peek()) || isDigit(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if kw, ok := keyword(text); ok {
			return Token{Kind: kw, Pos: pos}
		}
		return Token{Kind: IDENT, Text: text, Pos: pos}
	}

	lx.advance()
	two := func(next byte, withKind, withoutKind TokenKind) Token {
		if lx.peek() == next {
			lx.advance()
			return Token{Kind: withKind, Pos: pos}
		}
		return Token{Kind: withoutKind, Pos: pos}
	}
	switch c {
	case '(':
		return Token{Kind: LParen, Pos: pos}
	case ')':
		return Token{Kind: RParen, Pos: pos}
	case '{':
		return Token{Kind: LBrace, Pos: pos}
	case '}':
		return Token{Kind: RBrace, Pos: pos}
	case ';':
		return Token{Kind: Semi, Pos: pos}
	case ':':
		return Token{Kind: Colon, Pos: pos}
	case ',':
		return Token{Kind: Comma, Pos: pos}
	case '+':
		return Token{Kind: Plus, Pos: pos}
	case '-':
		return Token{Kind: Minus, Pos: pos}
	case '*':
		return Token{Kind: Star, Pos: pos}
	case '/':
		return Token{Kind: Slash, Pos: pos}
	case '%':
		return Token{Kind: Percent, Pos: pos}
	case '=':
		return two('=', Eq, Assign)
	case '!':
		return two('=', Neq, Not)
	case '<':
		return two('=', Leq, Lt)
	case '>':
		return two('=', Geq, Gt)
	case '&':
		if lx.peek() == '&' {
			lx.advance()
			return Token{Kind: AndAnd, Pos: pos}
		}
		lx.errorf(pos, "unexpected character '&' (did you mean '&&'?)")
		return Token{Kind: EOF, Pos: pos}
	case '|':
		if lx.peek() == '|' {
			lx.advance()
			return Token{Kind: OrOr, Pos: pos}
		}
		lx.errorf(pos, "unexpected character '|' (did you mean '||'?)")
		return Token{Kind: EOF, Pos: pos}
	}
	lx.errorf(pos, "unexpected character %q", string(c))
	return Token{Kind: EOF, Pos: pos}
}

// Tokenize lexes the whole input, returning the token stream without
// the trailing EOF. It is a convenience for tests.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		t := lx.Next()
		if lx.Err() != nil {
			return nil, lx.Err()
		}
		if t.Kind == EOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}
