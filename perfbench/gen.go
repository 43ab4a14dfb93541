package main

import (
	"fmt"
	"runtime"
	"sync"

	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// program is one generated input: its source text, one statement per
// line, and the write criteria of the parsed text.
type program struct {
	src   string
	crits []core.Criterion
}

// last returns the program's final write criterion, the one that sees
// the most flow.
func (p program) last() core.Criterion { return p.crits[len(p.crits)-1] }

// Input streams. Each role of a run draws its programs from its own
// stream, so warm-up, timed and sweep inputs never coincide.
const (
	streamOps = iota
	streamWarm
	streamCorpus
	streamSDG
	streamSession
	streamEdits
)

// corpusSeed fixes the programs of the serve-hot corpus, of the edit
// sessions and of the cold-pipeline set-up probe. Their costs are
// heavy-tailed (one program's slice can cost thirty times another's),
// so with fifty programs under a zipf skew a seed-dependent corpus
// would move every number by a fifth from seed to seed; the seed
// instead drives the request sequence and the edit scripts.
// Cold-pipeline operations never reuse a program and take the run's
// seed.
const corpusSeed = 1

// streamSeed derives the seed of item i of a stream (splitmix64).
func streamSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<40 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// genProgram generates a structured or unstructured (goto) program of
// about stmts statements.
func genProgram(seed int64, stmts int, structured bool) (program, error) {
	c := progen.Config{Seed: seed, Stmts: stmts}
	var p *lang.Program
	if structured {
		p = progen.Structured(c)
	} else {
		p = progen.Unstructured(c)
	}
	return parsed(lang.Format(p, lang.PrintOptions{}), progen.WriteCriteria)
}

// genSDGProgram generates a three-procedure program set whose criteria
// are main's writes.
func genSDGProgram(seed int64, stmtsPerProc int) (program, error) {
	p := progen.MultiProc(progen.Config{Seed: seed, Stmts: stmtsPerProc, Procs: 3})
	return parsed(lang.Format(p, lang.PrintOptions{}), progen.MainWriteCriteria)
}

// parsed re-parses formatted text so criteria carry the text's lines.
func parsed(src string, criteria func(*lang.Program) []struct {
	Var  string
	Line int
}) (program, error) {
	q, err := lang.Parse(src)
	if err != nil {
		return program{}, fmt.Errorf("generated program does not parse: %w", err)
	}
	out := program{src: src}
	for _, wc := range criteria(q) {
		out.crits = append(out.crits, core.Criterion{Var: wc.Var, Line: wc.Line})
	}
	if len(out.crits) == 0 {
		return program{}, fmt.Errorf("generated program has no write criteria")
	}
	return out, nil
}

// workers is how many goroutines untimed work (input generation,
// oracle checks) uses: one per CPU.
var workers = runtime.NumCPU()

// parallel runs f(0..n-1) on the worker goroutines and returns the
// first error.
func parallel(n int, f func(i int) error) error {
	var (
		mu    sync.Mutex
		first error
		next  int
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := guard(func() error { return f(i) }); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// guard runs f, turning a panic into an error so that a bug in a
// worker goroutine still lets the run stop its child processes.
func guard(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// genPrograms generates n programs of a stream in parallel.
func genPrograms(n int, f func(i int) (program, error)) ([]program, error) {
	out := make([]program, n)
	err := parallel(n, func(i int) error {
		p, err := f(i)
		out[i] = p
		return err
	})
	return out, err
}
