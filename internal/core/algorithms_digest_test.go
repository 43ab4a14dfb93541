package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// algorithmDigests pins, per progen corpus, what every slicer of this
// package returns for every write criterion of the corpus's programs
// (seeds 1-40 at 30 and 120 statements): the algorithm name, the node
// set, JumpsAdded in admission order, JumpRules, Traversals and the
// sorted label retargeting, or the error text. The jump-detection
// loops may be rewritten, but what they return may not change: a
// rewrite must pass this test without regenerating it.
var algorithmDigests = map[string]string{
	"structured":   "9dd17cac146873f52160402ca06a77c586914135c2ec9ade2b47a22f0a34efd5",
	"unstructured": "9cd7990f462bff8d42e248900a301b08c5dc017871d9f0a8ada16bbedca637e1",
}

func TestAlgorithmsDigest(t *testing.T) {
	algos := []func(*Analysis, Criterion) (*Slice, error){
		(*Analysis).Conventional,
		(*Analysis).Agrawal,
		(*Analysis).AgrawalLST,
		(*Analysis).AgrawalStructured,
		(*Analysis).AgrawalConservative,
	}
	corpora := []struct {
		name string
		gen  func(progen.Config) *lang.Program
	}{
		{"structured", progen.Structured},
		{"unstructured", progen.Unstructured},
	}
	for _, corpus := range corpora {
		h := sha256.New()
		for seed := int64(1); seed <= 40; seed++ {
			for _, stmts := range []int{30, 120} {
				p := corpus.gen(progen.Config{Seed: seed, Stmts: stmts})
				a, err := Analyze(p)
				if err != nil {
					t.Fatalf("%s seed %d stmts %d: analyze: %v", corpus.name, seed, stmts, err)
				}
				for _, wc := range progen.WriteCriteria(p) {
					c := Criterion{Var: wc.Var, Line: wc.Line}
					for _, run := range algos {
						s, err := run(a, c)
						digestSlice(h, c, s, err)
					}
				}
			}
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), algorithmDigests[corpus.name]; got != want {
			t.Errorf("%s: digest = %q, want %q", corpus.name, got, want)
		}
	}
}

// digestSlice writes one slicing result to h, one NUL-terminated
// record per criterion and algorithm.
func digestSlice(h hash.Hash, c Criterion, s *Slice, err error) {
	if err != nil {
		fmt.Fprintf(h, "%s error %s\x00", c, err)
		return
	}
	labels := make([]string, 0, len(s.Relabeled))
	for l := range s.Relabeled {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	fmt.Fprintf(h, "%s %s nodes %v jumps %v rules %v traversals %d relabeled", c, s.Algorithm, s.Nodes, s.JumpsAdded, s.JumpRules, s.Traversals)
	for _, l := range labels {
		fmt.Fprintf(h, " %s:%d", l, s.Relabeled[l])
	}
	h.Write([]byte{0})
}
