// Package lang implements the small imperative language the slicer
// operates on. The language is a C-like subset chosen to express every
// example program in Agrawal's "On Slicing Programs with Jump
// Statements" (PLDI 1994): integer variables, assignments, read/write
// I/O statements, if/else, while, C-style switch with fall-through,
// and the four jump statements the paper studies — goto (with labels),
// break, continue, and return.
//
// The package provides a lexer, a recursive-descent parser producing a
// position-annotated AST, a pretty-printer that can reproduce the
// paper's "line-number: statement" listings, and small analysis
// helpers (variable use/def sets, AST walking).
package lang

import "fmt"

// TokenKind enumerates the lexical token classes of the language.
type TokenKind int

// Token kinds. Keywords are distinguished from identifiers by the
// lexer so that the parser never confuses a variable named, say,
// "while" with the loop keyword (such variables are simply illegal).
const (
	EOF TokenKind = iota
	IDENT
	INT

	// Keywords.
	KwIf
	KwElse
	KwWhile
	KwSwitch
	KwCase
	KwDefault
	KwGoto
	KwBreak
	KwContinue
	KwReturn
	KwRead
	KwWrite
	KwProc
	KwCall

	// Punctuation and operators.
	LParen  // (
	RParen  // )
	LBrace  // {
	RBrace  // }
	Semi    // ;
	Colon   // :
	Comma   // ,
	Assign  // =
	Eq      // ==
	Neq     // !=
	Lt      // <
	Leq     // <=
	Gt      // >
	Geq     // >=
	Plus    // +
	Minus   // -
	Star    // *
	Slash   // /
	Percent // %
	Not     // !
	AndAnd  // &&
	OrOr    // ||
)

var tokenNames = map[TokenKind]string{
	EOF:        "end of input",
	IDENT:      "identifier",
	INT:        "integer literal",
	KwIf:       "'if'",
	KwElse:     "'else'",
	KwWhile:    "'while'",
	KwSwitch:   "'switch'",
	KwCase:     "'case'",
	KwDefault:  "'default'",
	KwGoto:     "'goto'",
	KwBreak:    "'break'",
	KwContinue: "'continue'",
	KwReturn:   "'return'",
	KwRead:     "'read'",
	KwWrite:    "'write'",
	KwProc:     "'proc'",
	KwCall:     "'call'",
	LParen:     "'('",
	RParen:     "')'",
	LBrace:     "'{'",
	RBrace:     "'}'",
	Semi:       "';'",
	Colon:      "':'",
	Comma:      "','",
	Assign:     "'='",
	Eq:         "'=='",
	Neq:        "'!='",
	Lt:         "'<'",
	Leq:        "'<='",
	Gt:         "'>'",
	Geq:        "'>='",
	Plus:       "'+'",
	Minus:      "'-'",
	Star:       "'*'",
	Slash:      "'/'",
	Percent:    "'%'",
	Not:        "'!'",
	AndAnd:     "'&&'",
	OrOr:       "'||'",
}

// String returns a human-readable name for the token kind, suitable
// for diagnostics ("expected ';', found 'else'").
func (k TokenKind) String() string {
	if s, ok := tokenNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// keyword reports whether an identifier-shaped word is a keyword,
// and which.
func keyword(text string) (TokenKind, bool) {
	switch text {
	case "if":
		return KwIf, true
	case "else":
		return KwElse, true
	case "while":
		return KwWhile, true
	case "switch":
		return KwSwitch, true
	case "case":
		return KwCase, true
	case "default":
		return KwDefault, true
	case "goto":
		return KwGoto, true
	case "break":
		return KwBreak, true
	case "continue":
		return KwContinue, true
	case "return":
		return KwReturn, true
	case "read":
		return KwRead, true
	case "write":
		return KwWrite, true
	case "proc":
		return KwProc, true
	case "call":
		return KwCall, true
	}
	return IDENT, false
}

// Pos is a source position. Lines and columns are 1-based; the line
// number doubles as the statement identifier used in slicing criteria,
// exactly as in the paper's "slice with respect to positives on line
// 12".
type Pos struct {
	Line int
	Col  int
}

// String formats the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token with its source position. Text holds
// the identifier spelling or literal digits; it is empty for
// fixed-spelling tokens.
type Token struct {
	Kind TokenKind
	Text string
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
