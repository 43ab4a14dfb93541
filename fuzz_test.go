package jumpslice

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"jumpslice/internal/core"
	"jumpslice/internal/lang"
)

// fuzzAlgos are the algorithms FuzzSliceExplain sweeps; the pick byte
// indexes into this list.
var fuzzAlgos = []Algorithm{
	Agrawal, AgrawalLST, Structured, Conservative, Conventional,
	BallHorwitz, Weiser, Lyle, Gallagher, JiangZhouRobson,
}

var critRe = regexp.MustCompile(`criterion:\s*(\w+)@(\d+)`)

// FuzzSliceExplain drives the whole pipeline — parse, analysis,
// every slicing algorithm, provenance — with arbitrary programs and
// criteria. The invariants: no panic or hang anywhere; a computed
// slice materializes to source that parses again (a slice is a
// projection of the program), and Format prints that program's
// listing byte for byte; the Figure 7 slice's provenance is
// computable whenever the slice is; and the per-call engine and the
// batch condensation, which walk the same slicing relation, return the
// same Figure 7 slice.
func FuzzSliceExplain(f *testing.F) {
	files, _ := filepath.Glob("testdata/*.mc")
	for i, fn := range files {
		data, err := os.ReadFile(fn)
		if err != nil {
			continue
		}
		src := string(data)
		v, line := "x", 1
		if m := critRe.FindStringSubmatch(src); m != nil {
			v = m[1]
			line, _ = strconv.Atoi(m[2])
		}
		f.Add(src, v, line, uint8(i))
	}
	f.Add("x = 1; write(x);", "x", 2, uint8(0))
	f.Add("while (!eof()) { read(x); if (x) break; } write(x);", "x", 4, uint8(1))
	// A conditional goto (its predicate brings the jump) and a default
	// reached by fall-through, which postdominates the dispatch (the
	// statement brings its switch).
	f.Add("read(n);\nread(x);\nif (n > 5) goto M;\nswitch (n) {\ncase 1: x = x + 1;\ndefault: y = n; }\nM: write(y);\n", "y", 7, uint8(0))

	f.Fuzz(func(t *testing.T, src, variable string, line int, algoPick uint8) {
		if len(src) > 4096 {
			// Bound per-exec analysis cost; depth and size stress lives
			// in FuzzParse.
			return
		}
		s, err := New(src)
		if err != nil {
			return
		}
		algo := fuzzAlgos[int(algoPick)%len(fuzzAlgos)]
		if _, err := s.SliceWith(algo, variable, line); err != nil {
			return // unknown criterion, unstructured program, ...
		}
		// A slice is a projection of the program: materialize it and
		// require the result to print and re-parse, and the listing
		// Format prints without building it to be that program's.
		sl, err := s.coreSlice(algo, core.Criterion{Var: variable, Line: line})
		if err != nil {
			t.Fatalf("coreSlice failed after SliceWith succeeded: %v", err)
		}
		m := sl.Materialize()
		text := lang.Format(m, lang.PrintOptions{})
		if _, err := lang.Parse(text); err != nil {
			t.Fatalf("materialized %s slice does not re-parse: %v\nprogram:\n%s\nslice:\n%s",
				algo, err, src, text)
		}
		if got, want := sl.Format(), lang.Format(m, lang.PrintOptions{LineNumbers: true}); got != want {
			t.Fatalf("%s slice: Format\n%s\nwant the materialized program's\n%s\nprogram:\n%s",
				algo, got, want, src)
		}
		if algo == Agrawal {
			all, err := s.analysis.SliceAll([]core.Criterion{{Var: variable, Line: line}})
			if err != nil {
				t.Fatalf("SliceAll failed where Agrawal succeeded: %v\nprogram:\n%s", err, src)
			}
			if b := all[0]; !b.Nodes.Equal(sl.Nodes) || !slices.Equal(b.JumpsAdded, sl.JumpsAdded) || b.Traversals != sl.Traversals {
				t.Fatalf("Agrawal %v jumps %v in %d traversals, SliceAll %v jumps %v in %d\nprogram:\n%s",
					sl.Nodes, sl.JumpsAdded, sl.Traversals, b.Nodes, b.JumpsAdded, b.Traversals, src)
			}
			ex, err := s.Explain(variable, line)
			if err != nil {
				t.Fatalf("Explain failed for a sliceable criterion: %v\nprogram:\n%s", err, src)
			}
			for _, l := range ex.Result.Lines {
				if len(ex.Reasons[l]) == 0 {
					t.Fatalf("slice line %d has no provenance\nprogram:\n%s", l, src)
				}
			}
		}
	})
}
