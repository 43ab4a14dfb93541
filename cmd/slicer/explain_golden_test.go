package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden snapshots")

// TestGoldenExplain snapshots the full -explain listings for the
// paper's two worked jump examples and pins the jump-rule evidence to
// the exact nearest-postdominator/nearest-lexical-successor pairs the
// paper derives. A third case pins the interprocedural listing, which
// has the same form. Regenerate deliberately with
//
//	go test -run TestGoldenExplain -update-golden ./cmd/slicer
func TestGoldenExplain(t *testing.T) {
	cases := []struct {
		name     string
		file     string
		algo     string
		varName  string
		line     string
		mustHave []string
		mustMiss []string
	}{
		{
			name:    "fig5-a",
			file:    "fig5-a.mc",
			varName: "positives",
			line:    "14",
			// The continue on line 7 is admitted because its nearest
			// postdominator in the slice (the while head, line 3)
			// differs from its nearest lexical successor in the slice
			// (line 8); the continue on line 11 has no such pair and
			// stays out.
			mustHave: []string{
				"  7: continue;  // jump-rule(nearest-PD=3, nearest-LS=8)",
				" 14: write(positives);  // criterion",
			},
			mustMiss: []string{" 11: continue;"},
		},
		{
			name:    "fig8-a",
			file:    "fig8-a.mc",
			varName: "positives",
			line:    "15",
			// Figure 8's goto-form of the same program: the goto on
			// line 7 jumps back to the loop head (nearest-PD=3 vs
			// nearest-LS=8), and the two gotos on lines 11 and 13 —
			// needed to keep control flow past the excluded sum
			// updates — both see nearest-PD=3 against nearest-LS=15.
			mustHave: []string{
				"  7: goto L3;  // jump-rule(nearest-PD=3, nearest-LS=8)",
				" 11: goto L3;  // jump-rule(nearest-PD=3, nearest-LS=15)",
				" 13: goto L3;  // jump-rule(nearest-PD=3, nearest-LS=15)",
				" 15: write(positives);  // criterion",
			},
		},
		{
			name:    "procs-two",
			file:    "procs-two.mc",
			algo:    "sdg",
			varName: "sum",
			line:    "10",
			// The call on line 8 is in because the callee's entry is
			// (call from 1, the declaration) and its argument feeds the
			// callee's formal (param-in); the declaration line carries
			// the formal-out the call's copy-back reads (param-out).
			// The second call, for cnt, stays out.
			mustHave: []string{
				"  1: proc add(s, x) {  // entry;",
				"param-out from 8",
				"  8: call add(sum, a);  // control-dep from 8; call from 1; param-in from 1; summary from 8; data-dep from 10",
				" 10: write(sum);  // criterion",
			},
			mustMiss: []string{"  9: call add(cnt, b);"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := filepath.Join("..", "..", "testdata", c.file)
			algo := c.algo
			if algo == "" {
				algo = "agrawal"
			}
			out, err := runCLI(t, "-algo", algo, "-var", c.varName, "-line", c.line, "-explain", src)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range c.mustHave {
				if !strings.Contains(out, want) {
					t.Errorf("explain output missing %q:\n%s", want, out)
				}
			}
			for _, miss := range c.mustMiss {
				if strings.Contains(out, miss) {
					t.Errorf("explain output wrongly contains %q:\n%s", miss, out)
				}
			}

			golden := filepath.Join("testdata", c.name+"-explain.golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%s: %v (run with -update-golden to create)", golden, err)
			}
			if string(want) != out {
				t.Errorf("%s: -explain output drifted from golden snapshot\n--- got ---\n%s\n--- want ---\n%s",
					golden, out, want)
			}
		})
	}
}
