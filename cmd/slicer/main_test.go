package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jumpslice/internal/paper"
)

// writeFig writes a corpus figure to a temp file and returns its path.
func writeFig(t *testing.T, f *paper.Figure) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mc")
	if err := os.WriteFile(path, []byte(f.Source), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func TestSliceLinesFigure3(t *testing.T) {
	path := writeFig(t, paper.Fig3())
	out, err := runCLI(t, "-var", "positives", "-line", "15", "-lines", path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out); got != "2 3 4 5 7 8 13 15" {
		t.Errorf("lines = %q, want \"2 3 4 5 7 8 13 15\"", got)
	}
}

func TestDefaultOutputIsRunnableSlice(t *testing.T) {
	path := writeFig(t, paper.Fig5())
	out, err := runCLI(t, "-var", "positives", "-line", "14", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"continue;", "positives = positives + 1;", "write(positives);"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "sum") {
		t.Errorf("slice should not mention sum:\n%s", out)
	}
}

func TestAlgorithmSelection(t *testing.T) {
	path := writeFig(t, paper.Fig14())
	conservative, err := runCLI(t, "-var", "y", "-line", "9", "-algo", "conservative", "-lines", path)
	if err != nil {
		t.Fatal(err)
	}
	precise, err := runCLI(t, "-var", "y", "-line", "9", "-algo", "structured", "-lines", path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(precise) != "1 3 4 9" {
		t.Errorf("structured lines = %q", precise)
	}
	if strings.TrimSpace(conservative) != "1 3 4 5 7 9" {
		t.Errorf("conservative lines = %q", conservative)
	}
}

func TestAllAlgorithmsRun(t *testing.T) {
	path := writeFig(t, paper.Fig16())
	for _, algo := range []string{"conventional", "weiser", "agrawal", "agrawal-lst",
		"structured", "conservative", "ball-horwitz", "lyle", "gallagher", "jzr"} {
		if _, err := runCLI(t, "-var", "y", "-line", "10", "-algo", algo, "-lines", path); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
}

func TestGraphOutput(t *testing.T) {
	path := writeFig(t, paper.Fig3())
	for _, kind := range []string{"cfg", "pdt", "lst", "cdg", "ddg", "pdg"} {
		out, err := runCLI(t, "-var", "positives", "-line", "15", "-graph", kind, path)
		if err != nil {
			t.Fatalf("graph %s: %v", kind, err)
		}
		if !strings.HasPrefix(out, "digraph") {
			t.Errorf("graph %s: not DOT output", kind)
		}
	}
}

func TestStatsOutput(t *testing.T) {
	path := writeFig(t, paper.Fig10())
	out, err := runCLI(t, "-var", "y", "-line", "9", "-stats", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"traversals: 3", "jumps added beyond conventional: 3",
		"label L6 re-attached to line 7", "label L8 re-attached to line 9"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats missing %q:\n%s", want, out)
		}
	}
	// The retargeted labels print in label order, so the output is the
	// same on every run.
	if !strings.Contains(out, "// label L6 re-attached to line 7\n// label L8 re-attached to line 9\n") {
		t.Errorf("relabeled labels out of order:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	path := writeFig(t, paper.Fig1())
	cases := [][]string{
		{path},                             // missing criterion
		{"-var", "x", "-line", "99", path}, // bad line
		{"-var", "x", "-line", "4", "-algo", "nope", path},  // bad algo
		{"-var", "x", "-line", "4", "-graph", "nope", path}, // bad graph
		{"-var", "x", "-line", "4", path, "extra"},          // too many files
		{"-var", "x", "-line", "4", "/does/not/exist"},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestStructuredAlgoRejectsUnstructured(t *testing.T) {
	path := writeFig(t, paper.Fig3())
	if _, err := runCLI(t, "-var", "positives", "-line", "15", "-algo", "structured", path); err == nil {
		t.Error("structured algorithm should reject Figure 3-a")
	}
}

func TestDynamicAlgo(t *testing.T) {
	path := writeFig(t, paper.Fig5())
	out, err := runCLI(t, "-var", "positives", "-line", "14",
		"-algo", "dynamic", "-input", "-1,-2", "-lines", path)
	if err != nil {
		t.Fatal(err)
	}
	static, err := runCLI(t, "-var", "positives", "-line", "14", "-lines", path)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Fields(out)) >= len(strings.Fields(static)) {
		t.Errorf("dynamic slice %q should be smaller than static %q on one-sided input", out, static)
	}
	if _, err := runCLI(t, "-var", "positives", "-line", "14",
		"-algo", "dynamic", "-input", "1,bogus", path); err == nil {
		t.Error("expected error for malformed -input")
	}
}

func TestFlattenMode(t *testing.T) {
	path := writeFig(t, paper.Fig3())
	out, err := runCLI(t, "-var", "positives", "-line", "15", "-flatten", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "executable slice") || !strings.Contains(out, "CF") {
		t.Errorf("flatten output malformed:\n%s", out)
	}
	if strings.Contains(out, "goto L13") {
		t.Errorf("flatten output kept an original jump:\n%s", out)
	}
}
