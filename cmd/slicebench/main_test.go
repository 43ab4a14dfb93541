package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jumpslice/internal/obs"
)

func TestPrecisionTable(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "precision", "-seeds", "8", "-stmts", "20"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E1:", "conventional", "agrawal (Fig 7)", "lyle", "unstructured"} {
		if !strings.Contains(out, want) {
			t.Errorf("precision table missing %q", want)
		}
	}
}

func TestSoundnessTable(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "soundness", "-seeds", "6", "-stmts", "20"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "E2:") || !strings.Contains(out, "100.0%") {
		t.Errorf("soundness table malformed:\n%s", out)
	}
}

func TestTraversalsTable(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "traversals", "-seeds", "10", "-stmts", "20"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "E4:") || !strings.Contains(out, "traversals ×") {
		t.Errorf("traversal table malformed:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "nope"}, &sb); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestDeterministicTables(t *testing.T) {
	var a, b strings.Builder
	if err := run(context.Background(), []string{"-exp", "precision", "-seeds", "5", "-stmts", "15"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-exp", "precision", "-seeds", "5", "-stmts", "15"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("precision table not deterministic")
	}
}

// TestParallelMatchesSerial is the seed-order reduction guarantee: a
// parallel run prints the same tables as a serial one.
func TestParallelMatchesSerial(t *testing.T) {
	var serial, parallel strings.Builder
	args := []string{"-exp", "precision", "-seeds", "8", "-stmts", "20"}
	if err := run(context.Background(), append(args, "-parallel", "1"), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append(args, "-parallel", "4"), &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("parallel run differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

// TestCacheParallelMatchesSerial extends that guarantee to -exp all,
// where the corpus sweep shares each analyzed program across E1, E2, E4
// and E6: a parallel run prints the same tables as a serial one. The E7
// and E8 tables after them are wall-clock measurements, so compare
// everything before them.
func TestCacheParallelMatchesSerial(t *testing.T) {
	var serial, parallel strings.Builder
	args := []string{"-exp", "all", "-seeds", "4", "-stmts", "15"}
	if err := run(context.Background(), append(args, "-parallel", "1"), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append(args, "-parallel", "8"), &parallel); err != nil {
		t.Fatal(err)
	}
	tables := func(s string) string {
		t.Helper()
		i := strings.Index(s, "\nE7:")
		if i < 0 {
			t.Fatalf("output missing E7 table:\n%s", s)
		}
		return s[:i]
	}
	if st, pt := tables(serial.String()), tables(parallel.String()); st != pt {
		t.Errorf("parallel tables differ from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", st, pt)
	}
}

// TestRejectsBadSeeds: a corpus needs at least one program. With
// none, E9 would index an empty key list and E6 would divide by zero.
func TestRejectsBadSeeds(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "cluster", "-seeds", "0"},
		{"-exp", "precision", "-seeds", "-3"},
		{"-exp", "dynamic", "-seeds", "0", "-json", filepath.Join(t.TempDir(), "f.json")},
	} {
		var sb strings.Builder
		if err := run(context.Background(), args, &sb); err == nil || !strings.Contains(err.Error(), "-seeds") {
			t.Errorf("run(%v) = %v, want a -seeds error", args, err)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "precision", "-seeds", "5", "-stmts", "15", "-json", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wrote JSON results to") {
		t.Errorf("missing JSON confirmation line:\n%s", sb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("JSON does not round-trip: %v", err)
	}
	if report.Seeds != 5 || report.Stmts != 15 {
		t.Errorf("report options = (%d seeds, %d stmts), want (5, 15)", report.Seeds, report.Stmts)
	}
	if len(report.E1) == 0 {
		t.Error("report.E1 empty after round-trip")
	}
	back, err := json.Marshal(&report)
	if err != nil {
		t.Fatal(err)
	}
	var again Report
	if err := json.Unmarshal(back, &again); err != nil {
		t.Fatalf("re-marshaled JSON does not parse: %v", err)
	}
	if len(again.E1) != len(report.E1) {
		t.Errorf("round-trip changed E1 length: %d vs %d", len(again.E1), len(report.E1))
	}
}

func TestDynamicTable(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "dynamic", "-seeds", "5", "-stmts", "20"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "E6:") || !strings.Contains(sb.String(), "dynamic") {
		t.Errorf("dynamic table malformed:\n%s", sb.String())
	}
}

// TestMetricsParallelDeterminism is the observability determinism
// guarantee: with a registry attached, the tables and the metrics
// snapshot are byte-identical at any parallelism — counters and
// histogram observation counts are commutative atomic sums reduced in
// a fixed order. Only the wall-clock *content* of the nanosecond span
// histograms (sum, bucket placement) legitimately varies run to run;
// Scrub removes exactly that before comparing.
func TestMetricsParallelDeterminism(t *testing.T) {
	runOnce := func(parallel string) (table string, metrics []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "metrics.json")
		var sb strings.Builder
		err := run(context.Background(), []string{"-exp", "precision", "-seeds", "8", "-stmts", "20",
			"-parallel", parallel, "-metrics", path}, &sb)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("metrics JSON does not parse: %v", err)
		}
		scrubbed, err := json.Marshal(snap.Scrub())
		if err != nil {
			t.Fatal(err)
		}
		// The table includes the metrics path, which differs per run;
		// strip the confirmation trailer before comparing.
		table = strings.Split(sb.String(), "\nwrote metrics snapshot")[0]
		return table, scrubbed
	}

	tableSerial, metricsSerial := runOnce("1")
	tableParallel, metricsParallel := runOnce("8")
	if tableSerial != tableParallel {
		t.Errorf("tables differ across parallelism:\n--- -parallel 1 ---\n%s\n--- -parallel 8 ---\n%s",
			tableSerial, tableParallel)
	}
	if !bytes.Equal(metricsSerial, metricsParallel) {
		t.Errorf("scrubbed metrics differ across parallelism:\n--- -parallel 1 ---\n%s\n--- -parallel 8 ---\n%s",
			metricsSerial, metricsParallel)
	}
}

// TestProfileFlags smoke-tests -cpuprofile and -memprofile: both
// files must exist and be non-empty after a run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var sb strings.Builder
	err := run(context.Background(), []string{"-exp", "traversals", "-seeds", "3", "-stmts", "15",
		"-cpuprofile", cpu, "-memprofile", mem}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestIncrTable covers E7 end to end: the printed table, the tier
// counts (the replayed script has one edit per tier per line, so the
// partition must be exact thirds), and the -json report rows.
func TestIncrTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "incr", "-seeds", "4", "-stmts", "20",
		"-json", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E7:", "patched", "partial", "full", "structured", "unstructured"} {
		if !strings.Contains(out, want) {
			t.Errorf("incr table missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.E7) != 2 {
		t.Fatalf("report.E7 has %d rows, want 2 corpora: %+v", len(report.E7), report.E7)
	}
	for _, r := range report.E7 {
		if r.Edits == 0 || r.Patched+r.Partial+r.Full != r.Edits {
			t.Errorf("%s: tier counts %d+%d+%d do not partition %d edits",
				r.Corpus, r.Patched, r.Partial, r.Full, r.Edits)
		}
		if r.Patched != r.Partial || r.Partial != r.Full {
			t.Errorf("%s: script replays one edit per tier per line, want equal thirds, got %d/%d/%d",
				r.Corpus, r.Patched, r.Partial, r.Full)
		}
		if r.MeanRatio <= 0 || r.MeanIncrNs <= 0 || r.MeanColdNs <= 0 {
			t.Errorf("%s: non-positive timing means: %+v", r.Corpus, r)
		}
	}
}
