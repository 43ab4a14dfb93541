package core

// Footprint estimates the resident bytes of an Analysis — the cost a
// byte-accounted cache charges for keeping it. The estimate is
// structural and deterministic: it is computed from node, edge and
// definition counts, never from allocator state, so two analyses of
// the same program always weigh the same and a cache's byte ledger
// stays reproducible across runs and GOMAXPROCS settings.
//
// The accounting covers the dominant heap consumers:
//
//   - per-node cost: the cfg.Node struct and its slot in every
//     parallel array the Analysis keeps (PDT/LST parent and children
//     arrays, CDG adjacency headers, live/enclosingSwitch, the
//     precomputed worklists), plus the retained AST statement;
//   - the conditional-jump index condJumpOf, one int per node;
//   - per-edge cost: the PDG adjacency lists (data + merged deps) and
//     their CDG/CFG counterparts;
//   - the reaching-definitions bitsets: one set (In) per node, one
//     word per 64 definition sites, plus the definition index.
//
// An analysis of a program with procedures is charged for every
// unit plus its system dependence graph, summary edges included once
// computed; the daemon computes them before caching the analysis.
//
// The lazily-built batch condensation and its memoized component
// closures, and the lazily-built one-unit program set of a
// procedure-free program, are intentionally excluded: they are not
// present on the cached single-request path, and charging for them
// would make an entry's cost change after insertion, which a
// consistent ledger cannot allow.
func (a *Analysis) Footprint() int64 {
	if len(a.Prog.Procs) > 0 {
		// Units are procedure-free, so each charges as above; the SDG
		// adds a vertex record with its dependence row header, and
		// one Dep with append slack per edge.
		st := a.set.ps.SDG.Stats()
		total := int64(st.Verts) * 96
		for _, n := range st.Edges {
			total += int64(n) * 24
		}
		for _, u := range a.set.ps.Units {
			total += u.Sub.Footprint()
		}
		return total
	}
	n := int64(a.CFG.NumNodes())
	edges := int64(a.PDG.NumDeps() + a.CFG.NumEdges())
	defs := int64(len(a.RD.Defs))

	const (
		perNode = 320 // cfg.Node + tree/worklist slots + AST statement
		perEdge = 48  // adjacency slice elements across PDG/CDG/CFG
		perDef  = 64  // dataflow.Def index entry
		fixed   = 512 // struct headers of the Analysis and its graphs
	)
	condJumpIndex := int64(len(a.condJumpOf)) * 8
	return fixed + n*perNode + edges*perEdge + defs*perDef + condJumpIndex + reachSetBytes(n, defs)
}

// reachSetBytes is the footprint's definition term: the one n×defs
// bit table (In) reaching definitions keep.
func reachSetBytes(nodes, defs int64) int64 {
	return nodes * ((defs + 63) / 64) * 8
}
