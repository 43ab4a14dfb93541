package lang_test

import (
	"slices"
	"sync"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// The text layers' allocation ceilings, on a fixed 200-statement
// progen program (the cold-pipeline workload's shape). Allocation
// counts are deterministic, so unlike timings these cannot flake.

func allocProgram(t *testing.T) (*lang.Program, string) {
	t.Helper()
	src := lang.Format(progen.Structured(progen.Config{Seed: 1, Stmts: 200}), lang.PrintOptions{})
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog, src
}

// TestFormatAllocs: printing appends into a pooled buffer, so a whole
// program costs the result string and nothing per line or expression
// (about 1700 allocations with a fmt-based printer). The ceiling
// leaves room for the pool being emptied by a collection mid-run.
func TestFormatAllocs(t *testing.T) {
	prog, _ := allocProgram(t)
	for _, opts := range []lang.PrintOptions{{}, {LineNumbers: true}} {
		if n := testing.AllocsPerRun(20, func() { _ = lang.Format(prog, opts) }); n > 4 {
			t.Errorf("Format(%+v) = %v allocs per program, want <= 4", opts, n)
		}
	}
}

// TestParseLookaheadAllocs: the lookahead buffer is reused as tokens
// are consumed, so draining every token costs the parser, the lexer
// and the buffer, however many tokens there are.
func TestParseLookaheadAllocs(t *testing.T) {
	_, src := allocProgram(t)
	var tokens int
	if n := testing.AllocsPerRun(10, func() { tokens = lang.DrainTokens(src) }); n > 3 {
		t.Errorf("draining %d tokens = %v allocs, want <= 3", tokens, n)
	}
	// What Parse allocates is the AST, fewer objects than tokens; a
	// per-token allocation in the lookahead would push it past.
	if n := testing.AllocsPerRun(10, func() { _, _ = lang.Parse(src) }); n >= float64(tokens) {
		t.Errorf("Parse = %v allocs for %d tokens, want fewer than one per token", n, tokens)
	}
}

// TestFormatConcurrent: the pooled buffers pass between goroutines, so
// concurrent printing of different programs must give each caller its
// own text — the same as printing them one at a time.
func TestFormatConcurrent(t *testing.T) {
	var progs []*lang.Program
	var want []string
	var wantTexts [][]string
	for seed := int64(1); seed <= 8; seed++ {
		p := progen.Unstructured(progen.Config{Seed: seed, Stmts: 60})
		progs = append(progs, p)
		want = append(want, lang.Format(p, lang.PrintOptions{LineNumbers: true}))
		wantTexts = append(wantTexts, lang.LineTexts(p))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(progs)
				if got := lang.Format(progs[k], lang.PrintOptions{LineNumbers: true}); got != want[k] {
					t.Errorf("goroutine %d: Format(program %d) differs from the serial result", g, k)
					return
				}
				if texts := lang.LineTexts(progs[k]); !slices.Equal(texts, wantTexts[k]) {
					t.Errorf("goroutine %d: LineTexts(program %d) differs from the serial result", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCountStatements: CountStatements agrees with
// len(Statements(p)) over the progen corpus — structured,
// unstructured and multi-procedure programs — and allocates nothing.
func TestCountStatements(t *testing.T) {
	var progs []*lang.Program
	for seed := int64(1); seed <= 40; seed++ {
		c := progen.Config{Seed: seed, Stmts: 10 + int(seed)*5, Procs: 3}
		progs = append(progs, progen.Structured(c), progen.Unstructured(c), progen.MultiProc(c))
	}
	for i, p := range progs {
		if got, want := lang.CountStatements(p), len(lang.Statements(p)); got != want {
			t.Errorf("program %d: CountStatements = %d, len(Statements) = %d", i, got, want)
		}
	}
	prog, _ := allocProgram(t)
	if n := testing.AllocsPerRun(20, func() { _ = lang.CountStatements(prog) }); n != 0 {
		t.Errorf("CountStatements = %v allocs, want 0", n)
	}
}
