package lang

// DrainTokens pulls every token of src through the parser's two-token
// lookahead, the way the statement parser peeks past labels, and
// returns how many tokens it consumed.
func DrainTokens(src string) int {
	p := &Parser{lx: NewLexer(src)}
	n := 0
	for p.peek().Kind != EOF {
		p.peekN(1)
		p.next()
		n++
	}
	return n
}
