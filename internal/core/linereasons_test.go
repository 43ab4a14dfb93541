package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// lineReasonsByString is the reference LineReasons: every reason
// rendered in node order, each line keeping the first occurrence of
// each string.
func lineReasonsByString(p *Provenance) map[int][]string {
	out := map[int][]string{}
	for id := 0; id < p.Len(); id++ {
		line, _ := p.loc(id)
		if line <= 0 {
			continue
		}
		for _, r := range p.Reasons(id) {
			if str := string(p.key(line, r).appendText(nil)); !slices.Contains(out[line], str) {
				out[line] = append(out[line], str)
			}
		}
	}
	return out
}

// TestPropertyLineReasonsKeyDedup pins the rendered-key deduplication
// to string deduplication, in first-occurrence order, on intraprocedural
// slices of both corpora and on SDG slices.
func TestPropertyLineReasonsKeyDedup(t *testing.T) {
	check := func(label string, p *Provenance) {
		t.Helper()
		if got, want := p.LineReasons(), lineReasonsByString(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: LineReasons\n%v\nwant\n%v", label, got, want)
		}
	}
	for _, gen := range []struct {
		name string
		gen  func(progen.Config) *lang.Program
	}{{"structured", progen.Structured}, {"unstructured", progen.Unstructured}} {
		for seed := int64(0); seed < 40; seed++ {
			p := gen.gen(progen.Config{Seed: seed, Stmts: 60})
			a, err := Analyze(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, wc := range progen.WriteCriteria(p) {
				c := Criterion{Var: wc.Var, Line: wc.Line}
				for name, slice := range map[string]func(Criterion) (*Slice, error){
					"agrawal": a.Agrawal, "conventional": a.Conventional, "conservative": a.AgrawalConservative,
				} {
					s, err := slice(c)
					if errors.Is(err, ErrUnstructured) {
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					prov, err := s.Explain()
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("%s seed %d %s %s", gen.name, seed, name, c), prov)
				}
			}
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		p := progen.MultiProc(progen.Config{Seed: seed, Stmts: 60, Procs: 3})
		a, err := Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := a.ProgramSet()
		if err != nil {
			t.Fatal(err)
		}
		for _, wc := range progen.MainWriteCriteria(p) {
			c := Criterion{Var: wc.Var, Line: wc.Line}
			s, err := ps.SliceInterproc(c)
			if err != nil {
				t.Fatal(err)
			}
			prov, err := s.Explain()
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("sdg seed %d %s", seed, c), prov)
		}
	}
}
