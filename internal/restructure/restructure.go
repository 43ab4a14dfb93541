// Package restructure converts arbitrary programs — goto tangles
// included — into structured programs (the paper's Section 4 sense:
// no jump whose target is not a lexical successor; in fact the output
// contains no goto at all).
//
// It implements the pathway Ball & Horwitz sketch at the end of the
// paper's Section 5: instead of deciding which original jumps a slice
// keeps, "apply a flowgraph structuring algorithm [4] on the flowgraph
// induced by the statements included in the slice". The structuring
// algorithm here is the classic single-loop ("pc-loop", folklore /
// Harel) transformation rather than Baker's — every flowgraph node
// becomes a case of one switch inside one while, dispatched on an
// explicit program counter:
//
//	pc = <entry>;
//	while (pc != <exit>) {
//	    switch (pc) {
//	    case n: <statement n>; pc = <successor>; break;
//	    ...
//	    }
//	}
//
// The output computes exactly what the input does (same writes, same
// criterion observations — property-tested), original statements keep
// their source positions (so line-based criteria still work), and the
// only jumps are the switch's break statements and any original
// returns — both structured. In particular, the Figure 12 algorithm
// becomes applicable to restructured versions of the paper's goto
// programs.
package restructure

import (
	"fmt"
	"sort"

	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
)

// Program restructures a whole program into pc-loop form.
func Program(prog *lang.Program) (*lang.Program, error) {
	if len(prog.Procs) > 0 {
		return nil, fmt.Errorf("restructure: programs with procedure declarations are not supported")
	}
	g, err := cfg.Build(prog)
	if err != nil {
		return nil, err
	}
	return fromCFG(g)
}

// fromCFG restructures the program behind an already-built flowgraph.
func fromCFG(g *cfg.Graph) (*lang.Program, error) {
	pcName := freshName(g.Prog, "pc")
	tagName := freshName(g.Prog, "pctag")

	pc := func() lang.Expr { return &lang.Ident{Name: pcName} }
	setPC := func(target int) lang.Stmt {
		return &lang.AssignStmt{Name: pcName, Value: &lang.IntLit{Value: int64(target)}}
	}

	// One switch case per reachable statement node, in ID order.
	reach := g.Reachable()
	var ids []int
	for _, n := range g.Nodes {
		if n.Kind == cfg.KindEntry || n.Kind == cfg.KindExit || !reach[n.ID] {
			continue
		}
		ids = append(ids, n.ID)
	}
	sort.Ints(ids)

	sw := &lang.SwitchStmt{Tag: pc()}
	for _, id := range ids {
		n := g.Nodes[id]
		body, err := caseBody(g, n, setPC, tagName)
		if err != nil {
			return nil, err
		}
		body = append(body, &lang.BreakStmt{})
		sw.Cases = append(sw.Cases, &lang.CaseClause{
			Values: []int64{int64(id)},
			Body:   body,
		})
	}

	// Initial pc: the entry's program successor (its "T" edge).
	first := g.Exit.ID
	for _, e := range g.Entry.Out {
		if e.Label == "T" {
			first = e.To
		}
	}

	loop := &lang.WhileStmt{
		Cond: &lang.BinaryExpr{Op: "!=", X: pc(), Y: &lang.IntLit{Value: int64(g.Exit.ID)}},
		Body: &lang.BlockStmt{List: []lang.Stmt{sw}},
	}
	out := &lang.Program{
		Body:   []lang.Stmt{setPC(first), loop},
		Labels: map[string]*lang.LabeledStmt{},
	}
	// Validate well-formedness through the printer/parser; return the
	// in-memory AST so original statement positions survive.
	if _, err := lang.Parse(lang.Format(out, lang.PrintOptions{})); err != nil {
		return nil, fmt.Errorf("restructure: output does not parse: %w", err)
	}
	return out, nil
}

// caseBody emits the pc-loop case for one flowgraph node.
func caseBody(g *cfg.Graph, n *cfg.Node, setPC func(int) lang.Stmt, tagName string) ([]lang.Stmt, error) {
	switch n.Kind {
	case cfg.KindAssign, cfg.KindRead, cfg.KindWrite:
		// The statement itself (label wrappers dropped — there are no
		// gotos left to target them), then the successor.
		return []lang.Stmt{lang.Unlabel(n.Stmt), setPC(n.Out[0].To)}, nil
	case cfg.KindSkip:
		return []lang.Stmt{setPC(n.Out[0].To)}, nil
	case cfg.KindGoto, cfg.KindBreak, cfg.KindContinue:
		// Pure control transfer: becomes a pc assignment.
		return []lang.Stmt{setPC(n.Out[0].To)}, nil
	case cfg.KindReturn:
		// Keep the return: it exits the pc-loop and the program alike,
		// and it is a structured jump.
		return []lang.Stmt{lang.Unlabel(n.Stmt)}, nil
	case cfg.KindPredicate:
		cond := predicateCond(n.Stmt)
		var tTo, fTo int
		for _, e := range n.Out {
			switch e.Label {
			case "T":
				tTo = e.To
			case "F":
				fTo = e.To
			}
		}
		return []lang.Stmt{&lang.IfStmt{
			P:    n.Stmt.Pos(),
			Cond: cond,
			Then: &lang.BlockStmt{List: []lang.Stmt{setPC(tTo)}},
			Else: &lang.BlockStmt{List: []lang.Stmt{setPC(fTo)}},
		}}, nil
	case cfg.KindSwitch:
		swStmt := lang.Unlabel(n.Stmt).(*lang.SwitchStmt)
		// Evaluate the tag once into a scratch variable, then an
		// if/else chain of dispatches.
		body := []lang.Stmt{&lang.AssignStmt{
			P: n.Stmt.Pos(), Name: tagName, Value: swStmt.Tag,
		}}
		type dispatch struct {
			value  int64
			target int
		}
		var ds []dispatch
		defaultTo := -1
		for _, e := range n.Out {
			if e.Label == "default" {
				defaultTo = e.To
				continue
			}
			var v int64
			fmt.Sscanf(e.Label, "%d", &v)
			ds = append(ds, dispatch{value: v, target: e.To})
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i].value < ds[j].value })
		if defaultTo < 0 {
			return nil, fmt.Errorf("restructure: switch node %v has no default edge", n)
		}
		// Build the chain inside-out.
		var chain lang.Stmt = &lang.BlockStmt{List: []lang.Stmt{setPC(defaultTo)}}
		for i := len(ds) - 1; i >= 0; i-- {
			chain = &lang.IfStmt{
				Cond: &lang.BinaryExpr{Op: "==",
					X: &lang.Ident{Name: tagName},
					Y: &lang.IntLit{Value: ds[i].value}},
				Then: &lang.BlockStmt{List: []lang.Stmt{setPC(ds[i].target)}},
				Else: chain,
			}
		}
		return append(body, chain), nil
	}
	return nil, fmt.Errorf("restructure: cannot restructure node %v", n)
}

// predicateCond extracts the condition of an if or while statement.
func predicateCond(s lang.Stmt) lang.Expr {
	switch s := lang.Unlabel(s).(type) {
	case *lang.IfStmt:
		return s.Cond
	case *lang.WhileStmt:
		return s.Cond
	}
	panic(fmt.Sprintf("restructure: predicate node with %T", s))
}

// freshName returns base if unused in the program, else base with a
// numeric suffix.
func freshName(p *lang.Program, base string) string {
	used := map[string]bool{}
	for _, v := range lang.VarNames(p) {
		used[v] = true
	}
	if !used[base] {
		return base
	}
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s%d", base, i)
		if !used[cand] {
			return cand
		}
	}
}
