package core

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
	"jumpslice/internal/sdg"
)

// jumpProcsSrc has a shape MultiProc never emits: a jump inside a
// procedure whose target label is retargeted past the procedure's last
// statement, a callee sliced down to its declaration, and a label on
// main's last statement.
const jumpProcsSrc = `proc f(x, y) {
    if (x > 0) goto L1;
    y = y + 1;
    L1: z = 1;
}
proc g(u) {
    u = 5;
}
read(a);
b = 0;
call f(a, b);
call g(a);
write(b);
L2: write(a);
`

// multiProcSlices returns the interprocedural slice of every main
// write criterion of a MultiProc corpus — 12 program sets at each of
// four sizes, three procedures each — and of jumpProcsSrc.
func multiProcSlices(t *testing.T) []*InterSlice {
	t.Helper()
	var progs []*lang.Program
	for _, stmts := range []int{15, 30, 60, 120} {
		for seed := int64(1); seed <= 12; seed++ {
			progs = append(progs, progen.MultiProc(progen.Config{Seed: seed, Stmts: stmts, Procs: 3}))
		}
	}
	jumps, err := lang.Parse(jumpProcsSrc)
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, jumps)
	var out []*InterSlice
	for i, p := range progs {
		ps, err := AnalyzeProgramSet(p)
		if err != nil {
			t.Fatalf("program %d: analyze: %v", i, err)
		}
		for _, wc := range progen.MainWriteCriteria(p) {
			s, err := ps.SliceInterproc(Criterion{Var: wc.Var, Line: wc.Line})
			if err != nil {
				t.Fatalf("program %d %s@%d: %v", i, wc.Var, wc.Line, err)
			}
			out = append(out, s)
		}
	}
	return out
}

// checkInterProvenance asserts the provenance properties on one
// interprocedural slice, over SDG vertices:
//
//	sound    — records sit only on members, each record's evidence
//	           vertex is a member (a jump rule's may be an Exit), and
//	           each vertex's records are sorted;
//	complete — every member vertex has a record, so every slice line
//	           has one whose evidence is in the slice or is the
//	           criterion.
//
// It returns the number of slice lines checked.
func checkInterProvenance(t *testing.T, s *InterSlice) int {
	t.Helper()
	p, err := s.Explain()
	if err != nil {
		t.Fatalf("%s: explain: %v", s.Criterion, err)
	}
	g := s.Set.SDG
	if p.Len() != g.NumVerts() {
		t.Fatalf("%s: table covers %d vertices, graph has %d", s.Criterion, p.Len(), g.NumVerts())
	}
	isExit := func(v int) bool {
		x := g.Vert(v)
		return x.Kind == sdg.VertStmt && x.Node == g.Procs[x.Proc].CFG.Exit.ID
	}
	explained := map[int]bool{}
	for v := 0; v < p.Len(); v++ {
		rs := p.Reasons(v)
		if !s.V2.Has(v) {
			if len(rs) > 0 {
				t.Errorf("%s: %s has records but is not in the slice", s.Criterion, g.VertString(v))
			}
			continue
		}
		if len(rs) == 0 {
			t.Errorf("%s: member %s has no record", s.Criterion, g.VertString(v))
		}
		if !slices.IsSortedFunc(rs, func(a, b Reason) int {
			return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.From, b.From),
				cmp.Compare(a.NearestPD, b.NearestPD), cmp.Compare(a.NearestLS, b.NearestLS))
		}) {
			t.Errorf("%s: %s: records out of order: %v", s.Criterion, g.VertString(v), rs)
		}
		for _, r := range rs {
			ok := r.From >= 0 && s.V2.Has(r.From)
			switch r.Kind {
			case ReasonCriterion, ReasonEntry:
				ok = r.From == -1
			case ReasonJumpRule:
				ok = r.NearestPD != r.NearestLS &&
					(s.V2.Has(r.NearestPD) || isExit(r.NearestPD)) &&
					(s.V2.Has(r.NearestLS) || isExit(r.NearestLS))
			}
			if !ok {
				t.Errorf("%s: %s: record %v: evidence not in the slice", s.Criterion, g.VertString(v), r)
				continue
			}
			explained[g.VertLine(v)] = true
		}
	}
	lines := s.Lines()
	for _, l := range lines {
		if !explained[l] {
			t.Errorf("%s: slice line %d has no reason", s.Criterion, l)
		}
	}
	return len(lines)
}

// TestPropertyInterSliceProvenanceSoundAndComplete mirrors
// TestPropertyProvenanceSoundAndComplete on interprocedural slices.
func TestPropertyInterSliceProvenanceSoundAndComplete(t *testing.T) {
	cases := 0
	for _, s := range multiProcSlices(t) {
		checkInterProvenance(t, s)
		cases++
	}
	if cases < 100 {
		t.Fatalf("only %d slices checked", cases)
	}
	// The corpus the single-criterion measurement used: 30 sets of 60
	// statements, the last main write criterion of each.
	lines := 0
	for seed := int64(1); seed <= 30; seed++ {
		p := progen.MultiProc(progen.Config{Seed: seed, Stmts: 60, Procs: 3})
		ps, err := AnalyzeProgramSet(p)
		if err != nil {
			t.Fatal(err)
		}
		crits := progen.MainWriteCriteria(p)
		wc := crits[len(crits)-1]
		s, err := ps.SliceInterproc(Criterion{Var: wc.Var, Line: wc.Line})
		if err != nil {
			t.Fatal(err)
		}
		lines += checkInterProvenance(t, s)
	}
	t.Logf("%d slice lines of 30 MultiProc(Stmts 60) slices, each explained", lines)
}

// TestInterSliceReasonsMatchAgrawal checks the two explain paths
// against each other: on a procedure-free program the SDG slice is the
// Agrawal slice, so its line reasons must be the Agrawal slice's.
func TestInterSliceReasonsMatchAgrawal(t *testing.T) {
	progs := oracleCorpus(t, 30)
	for _, f := range paper.All() {
		progs = append(progs, f.Parse())
	}
	cases := 0
	for i, prog := range progs {
		a, err := Analyze(prog)
		if err != nil {
			t.Fatalf("program %d: analyze: %v", i, err)
		}
		ps, err := a.ProgramSet()
		if err != nil {
			t.Fatalf("program %d: program set: %v", i, err)
		}
		for _, wc := range progen.WriteCriteria(prog) {
			c := Criterion{Var: wc.Var, Line: wc.Line}
			ag, err := a.Agrawal(c)
			if err != nil {
				t.Fatalf("program %d %s: agrawal: %v", i, c, err)
			}
			is, err := ps.SliceInterproc(c)
			if err != nil {
				t.Fatalf("program %d %s: sdg: %v", i, c, err)
			}
			want, err := ag.Explain()
			if err != nil {
				t.Fatal(err)
			}
			got, err := is.Explain()
			if err != nil {
				t.Fatal(err)
			}
			if g, w := got.LineReasons(), want.LineReasons(); !reflect.DeepEqual(g, w) {
				t.Errorf("program %d %s: sdg reasons\n%v\nagrawal reasons\n%v\nprogram:\n%s",
					i, c, g, w, lang.Format(prog, lang.PrintOptions{LineNumbers: true}))
			}
			if g, w := got.Listing(), want.Listing(); g != w {
				t.Errorf("program %d %s: sdg listing\n%s\nagrawal listing\n%s", i, c, g, w)
			}
			cases++
		}
	}
	if cases < 500 {
		t.Fatalf("only %d criteria checked", cases)
	}
	t.Logf("%d criteria", cases)
}
