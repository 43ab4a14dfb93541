package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"jumpslice/internal/lang"
)

// materializeDigest pins the programs Materialize builds on the inputs
// of TestPropertyFormatMatchesMaterialize: every intraprocedural slice
// of projectionSlices and every MultiProc interprocedural slice. The
// digest covers what comparing printed listings cannot: each
// statement's kind and position, the order and position of label
// wrappers, the position of an emptied branch's "{}", whether a kept
// simple statement is the original's own value, and which wrapper
// each body's Labels index names. A rewrite of the projection must
// pass this test without regenerating it.
const materializeDigest = "f151359ff9c866c46da2357a70f87f58eab6b6dca4e5c677ff11bd788953acbe"

func TestMaterializeDigest(t *testing.T) {
	h := sha256.New()
	projectionSlices(t, func(i int, s *Slice) {
		fmt.Fprintf(h, "program %d %s %s\x00", i, s.Criterion, s.Algorithm)
		digestProgram(h, s.Analysis.Prog, s.Materialize())
	})
	for _, is := range multiProcSlices(t) {
		fmt.Fprintf(h, "sdg %s\x00", is.Criterion)
		digestProgram(h, is.Set.Prog, is.Materialize())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != materializeDigest {
		t.Errorf("digest = %q, want %q", got, materializeDigest)
	}
}

// digestProgram writes the shape of p, a projection of orig, to h:
// each procedure's header and body, then the main body.
func digestProgram(h hash.Hash, orig, p *lang.Program) {
	shared := map[lang.Stmt]bool{}
	lang.WalkProgram(orig, func(s lang.Stmt) { shared[s] = true })
	for _, d := range p.Procs {
		fmt.Fprintf(h, "proc %s@%v %v\x00", d.Name, d.P, d.Params)
		digestBody(h, shared, d.Body, d.Labels)
	}
	fmt.Fprintf(h, "main\x00")
	digestBody(h, shared, p.Body, p.Labels)
}

// digestBody writes one statement list, then its Labels index: each
// label with the preorder number of the wrapper it names among the
// list's wrappers (-1 for a wrapper outside the list).
func digestBody(h hash.Hash, shared map[lang.Stmt]bool, list []lang.Stmt, index map[string]*lang.LabeledStmt) {
	wrappers := map[*lang.LabeledStmt]int{}
	for _, s := range list {
		lang.Walk(s, func(s lang.Stmt) {
			if l, ok := s.(*lang.LabeledStmt); ok {
				wrappers[l] = len(wrappers)
			}
		})
		digestStmt(h, shared, s)
	}
	names := make([]string, 0, len(index))
	for l := range index {
		names = append(names, l)
	}
	sort.Strings(names)
	fmt.Fprintf(h, "labels")
	for _, l := range names {
		w, ok := wrappers[index[l]]
		if !ok {
			w = -1
		}
		fmt.Fprintf(h, " %s:%d", l, w)
	}
	h.Write([]byte{0})
}

// digestStmt writes s and its subtree in preorder, one record per
// statement: its kind and position, a wrapper's label, a switch
// clause's values, and for a simple statement whether it is shared.
func digestStmt(h hash.Hash, shared map[lang.Stmt]bool, s lang.Stmt) {
	if s == nil {
		fmt.Fprintf(h, "nil\x00")
		return
	}
	fmt.Fprintf(h, "%T@%v", s, s.Pos())
	switch s := s.(type) {
	case *lang.LabeledStmt:
		fmt.Fprintf(h, " %s\x00", s.Label)
		digestStmt(h, shared, s.Stmt)
	case *lang.BlockStmt:
		fmt.Fprintf(h, " %d\x00", len(s.List))
		for _, st := range s.List {
			digestStmt(h, shared, st)
		}
	case *lang.IfStmt:
		h.Write([]byte{0})
		digestStmt(h, shared, s.Then)
		digestStmt(h, shared, s.Else)
	case *lang.WhileStmt:
		h.Write([]byte{0})
		digestStmt(h, shared, s.Body)
	case *lang.SwitchStmt:
		fmt.Fprintf(h, " %d\x00", len(s.Cases))
		for _, c := range s.Cases {
			fmt.Fprintf(h, "case@%v %v %v %d\x00", c.P, c.Values, c.IsDefault, len(c.Body))
			for _, st := range c.Body {
				digestStmt(h, shared, st)
			}
		}
	default:
		fmt.Fprintf(h, " shared=%v\x00", shared[s])
	}
}
