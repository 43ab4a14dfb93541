package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refLines is the Lines implementation the single ascending pass
// replaced: a line set in a map, then sorted.
func refLines(s *Slice) []int {
	seen := map[int]bool{}
	for id := s.Nodes.NextSet(0); id >= 0; id = s.Nodes.NextSet(id + 1) {
		if n := s.Analysis.CFG.Nodes[id]; n.Line > 0 {
			seen[n.Line] = true
		}
	}
	lines := make([]int, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Ints(lines)
	return lines
}

// TestPropertyLinesMatchesReference pins Lines to the map-and-sort
// implementation on the 240-program corpus (120 seeds of each
// generator), for the conventional and Figure 7 slices of every write
// criterion, and on the same slices after the node lines are
// scrambled, which takes the path for positions that do not ascend.
func TestPropertyLinesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := 0
	batchCases(t, 120, func(t *testing.T, corpus string, seed int64, a *Analysis, crits []Criterion) {
		var slices []*Slice
		for _, c := range crits {
			for _, run := range []func(Criterion) (*Slice, error){a.Conventional, a.Agrawal} {
				s, err := run(c)
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", corpus, seed, c, err)
				}
				slices = append(slices, s)
			}
		}
		check := func(what string) {
			for _, s := range slices {
				cases++
				if got, want := s.Lines(), refLines(s); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d %s %s (%s): Lines %v, reference %v", corpus, seed, s.Criterion, s.Algorithm, what, got, want)
				}
			}
		}
		check("parsed")
		// The analysis is this test's own: scramble its node lines.
		for _, n := range a.CFG.Nodes[2:] {
			n.Line = 1 + rng.Intn(len(a.CFG.Nodes))
		}
		check("scrambled")
	})
	if cases < 1000 {
		t.Fatalf("only %d cases exercised", cases)
	}
}
