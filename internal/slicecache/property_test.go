package slicecache_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"jumpslice/internal/baselines"
	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
	"jumpslice/internal/slicecache"
)

// TestCachedMatchesUncached is the end-to-end soundness property: for
// 240 generated programs (120 seeds from each corpus) and every
// algorithm in baselines.ByName, slicing through the cache yields
// byte-identical results to slicing a freshly analyzed program — the
// same slice lines and the same materialized program text. The cache
// is shared across the corpus, so later seeds also exercise the hit
// path (every program is queried twice: miss then hit).
func TestCachedMatchesUncached(t *testing.T) {
	cache := slicecache.New(slicecache.Options{})
	algos := make([]string, 0, len(baselines.ByName))
	for name := range baselines.ByName {
		algos = append(algos, name)
	}
	sort.Strings(algos)
	corpora := []struct {
		name string
		gen  func(progen.Config) *lang.Program
	}{
		{"structured", progen.Structured},
		{"unstructured", progen.Unstructured},
	}
	for _, corpus := range corpora {
		t.Run(corpus.name, func(t *testing.T) {
			for seed := int64(0); seed < 120; seed++ {
				// Both sides analyze the same source text: the cache
				// key is the formatted program, so the uncached
				// reference parses it back too (progen's AST and its
				// print/parse round trip may order statement labels
				// differently, which is irrelevant to caching).
				src := lang.Format(corpus.gen(progen.Config{Seed: seed, Stmts: 30}), lang.PrintOptions{})
				p, err := lang.Parse(src)
				if err != nil {
					t.Fatalf("seed %d: reparse: %v", seed, err)
				}
				wcs := progen.WriteCriteria(p)
				if len(wcs) == 0 {
					continue
				}
				wc := wcs[len(wcs)-1]
				crit := core.Criterion{Var: wc.Var, Line: wc.Line}

				fresh, err := core.Analyze(p)
				if err != nil {
					t.Fatalf("seed %d: analyze: %v", seed, err)
				}
				build := func(ctx context.Context) (*core.Analysis, error) {
					pp, err := lang.Parse(src)
					if err != nil {
						return nil, err
					}
					a, err := core.AnalyzeObservedContext(ctx, pp, nil, nil)
					if err != nil {
						return nil, err
					}
					return a.Rebind(nil, nil, nil), nil
				}
				for pass, want := range []slicecache.Outcome{slicecache.Miss, slicecache.Hit} {
					cached, out, err := cache.Get(context.Background(), src, build)
					if err != nil {
						t.Fatalf("seed %d pass %d: cache.Get: %v", seed, pass, err)
					}
					if out != want {
						t.Fatalf("seed %d pass %d: outcome %v, want %v", seed, pass, out, want)
					}
					view := cached.Rebind(context.Background(), nil, nil)
					for _, name := range algos {
						ws, werr := baselines.ByName[name](fresh, crit)
						gs, gerr := baselines.ByName[name](view, crit)
						if (werr == nil) != (gerr == nil) {
							t.Fatalf("seed %d %s: error mismatch: uncached %v, cached %v",
								seed, name, werr, gerr)
						}
						if werr != nil {
							continue
						}
						if w, g := fmt.Sprint(ws.Lines()), fmt.Sprint(gs.Lines()); w != g {
							t.Fatalf("seed %d %s: cached slice lines %s, uncached %s",
								seed, name, g, w)
						}
						if w, g := ws.Format(), gs.Format(); w != g {
							t.Fatalf("seed %d %s: materialized slice differs\nuncached:\n%s\ncached:\n%s",
								seed, name, w, g)
						}
					}
				}
			}
		})
	}
	st := cache.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("property run exercised no %s path: %+v",
			map[bool]string{true: "miss", false: "hit"}[st.Misses == 0], st)
	}
	if err := cache.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
}
