package baselines

import (
	"fmt"

	"jumpslice/internal/core"
)

// Algorithm computes one intraprocedural slice of an analysis.
type Algorithm func(*core.Analysis, core.Criterion) (*core.Slice, error)

// ByName maps every intraprocedural algorithm's name to it: the
// paper's three (Figures 7, 12 and 13), the LST-driven Figure 7
// variant, the conventional slicer, and the related-work baselines.
var ByName = map[string]Algorithm{
	"conventional": (*core.Analysis).Conventional,
	"agrawal":      (*core.Analysis).Agrawal,
	"agrawal-lst":  (*core.Analysis).AgrawalLST,
	"structured":   (*core.Analysis).AgrawalStructured,
	"conservative": (*core.Analysis).AgrawalConservative,
	"ball-horwitz": BallHorwitz,
	"weiser":       Weiser,
	"lyle":         Lyle,
	"gallagher":    Gallagher,
	"jzr":          JiangZhouRobson,
}

// Slice computes the slice of c with the algorithm called name.
func Slice(a *core.Analysis, name string, c core.Criterion) (*core.Slice, error) {
	run, ok := ByName[name]
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
	return run(a, c)
}
