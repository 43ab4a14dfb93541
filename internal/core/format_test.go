package core

import (
	"math/rand"
	"testing"

	"jumpslice/internal/bits"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

// formatViaMaterialize is what Format printed before it printed from
// the original AST: the materialized program through lang.Format.
func formatViaMaterialize(s *Slice) string {
	return lang.Format(s.Materialize(), lang.PrintOptions{LineNumbers: true})
}

// TestPropertyFormatMatchesMaterialize pins Format, which prints the
// projection straight from the original AST, to lang.Format of the
// materialized program, byte for byte: on every algorithm's slice of
// every write criterion of the corpus, on the interprocedural slice of
// every main write criterion of a MultiProc corpus, and on arbitrary
// node sets with arbitrary label retargetings (a baseline builds its
// own sets, and a set need not be closed under anything), which reach
// the emptied-branch, emptied-else, trailing-clause and label rules
// the algorithms' slices rarely combine.
func TestPropertyFormatMatchesMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	algos := []func(*Analysis, Criterion) (*Slice, error){
		(*Analysis).Conventional, (*Analysis).Agrawal,
		(*Analysis).AgrawalStructured, (*Analysis).AgrawalConservative,
	}
	progs := oracleCorpus(t, 30)
	for _, f := range paper.All() {
		progs = append(progs, f.Parse())
	}
	// Shapes the generators never emit: labels on blocks and on
	// compound statements, stacked labels, empty blocks, else-if
	// chains, non-block branches and a labeled conditional jump.
	progs = append(progs, parse(t, `read(x);
L1: L2: {
    x = x + 1;
    {}
}
L3: if (x > 0) y = 1; else if (x < 0) y = 2; else { y = 3; }
L4: while (x > 0) x = x - 1;
L5: if (eof()) goto L1;
if (x) {} else {}
switch (x) {
case 1: {}
case 2: L6: y = 4;
default: z = 5; break;
}
L7: switch (y) { case 1: write(y); }
L8: write(x);
write(y);
write(z);
`))
	cases := 0
	check := func(i int, s *Slice) {
		t.Helper()
		cases++
		if got, want := s.Format(), formatViaMaterialize(s); got != want {
			t.Fatalf("program %d %s %s: Format\n%s\nwant\n%s", i, s.Criterion, s.Algorithm, got, want)
		}
	}
	for i, p := range progs {
		a, err := Analyze(p)
		if err != nil {
			t.Fatalf("program %d: analyze: %v", i, err)
		}
		for _, wc := range progen.WriteCriteria(p) {
			for _, run := range algos {
				if s, err := run(a, Criterion{Var: wc.Var, Line: wc.Line}); err == nil {
					check(i, s)
				}
			}
		}
		n := a.CFG.NumNodes()
		var labels []string
		for l := range a.CFG.LabelNode {
			labels = append(labels, l)
		}
		reps := 6
		if i == len(progs)-1 {
			reps = 400 // the handcrafted shapes
		}
		for k := 0; k < reps; k++ {
			set := bits.New(n)
			density := 2 + rng.Intn(6)
			for v := 0; v < n; v++ {
				if rng.Intn(density) == 0 {
					set.Add(v)
				}
			}
			s := &Slice{Analysis: a, Algorithm: "random", Nodes: set, Relabeled: a.retargetLabels(set)}
			check(i, s)
			// Arbitrary retargetings: labels on kept statements, on
			// Exit, and several on one node.
			s.Relabeled = map[string]int{}
			members := set.Members()
			for j := 0; j < 1+rng.Intn(4); j++ {
				target := a.CFG.Exit.ID
				if len(members) > 0 && rng.Intn(3) > 0 {
					target = members[rng.Intn(len(members))]
				}
				s.Relabeled[string(rune('A'+j))+"r"] = target
			}
			for _, l := range labels {
				if rng.Intn(4) == 0 && len(members) > 0 {
					s.Relabeled[l] = members[rng.Intn(len(members))]
				}
			}
			check(i, s)
		}
	}
	// Interprocedural slices print one projection per kept unit.
	for _, is := range multiProcSlices(t) {
		cases++
		if got, want := is.Format(), lang.Format(is.Materialize(), lang.PrintOptions{LineNumbers: true}); got != want {
			t.Fatalf("sdg %s: Format\n%s\nwant\n%s", is.Criterion, got, want)
		}
	}
	if cases < 2000 {
		t.Fatalf("only %d cases exercised", cases)
	}
}
