package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden tables")

// TestTablesGolden pins the deterministic experiment tables byte for
// byte, so a change to how the corpus is swept cannot change a row.
// Regenerate deliberately with
//
//	go test -run TestTablesGolden -update-golden ./cmd/slicebench
func TestTablesGolden(t *testing.T) {
	for _, exp := range []string{"precision", "soundness", "traversals", "dynamic", "cluster"} {
		t.Run(exp, func(t *testing.T) {
			var sb strings.Builder
			args := []string{"-exp", exp, "-seeds", "8", "-stmts", "20", "-parallel", "4"}
			if err := run(context.Background(), args, &sb); err != nil {
				t.Fatal(err)
			}
			got := sb.String()
			path := filepath.Join("testdata", exp+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (run with -update-golden to create)", path, err)
			}
			if got != string(want) {
				t.Errorf("%s: table drifted from golden\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
