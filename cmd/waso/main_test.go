package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"waso/internal/core"
	"waso/internal/gen"
	"waso/internal/solver"
)

var update = flag.Bool("update", false, "rewrite golden files")

// timingRE matches inline wall-clock figures in verbose per-seed lines.
var timingRE = regexp.MustCompile(`\d+(\.\d+)?ms`)

// normalize redacts the nondeterministic cells (mean_ms column, inline
// timings) and collapses alignment whitespace, so golden files capture
// every deterministic cell — algorithm rows, willingness statistics,
// sample and prune counters — across both the table and CSV renderers.
func normalize(out string) string {
	out = timingRE.ReplaceAllString(out, "<ms>")
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		fields := strings.FieldsFunc(strings.TrimSpace(line), func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		})
		// Data rows have 8 columns with a numeric mean_ms in column 5.
		if len(fields) == 8 {
			if _, err := strconv.ParseFloat(fields[5], 64); err == nil {
				fields[5] = "<ms>"
			}
		}
		b.WriteString(strings.Join(fields, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

func runGolden(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return normalize(buf.String())
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// Golden runs pin -workers 1, a one-worker executor: solution cells are
// independent of the executor's size by design, but the pruned counter is
// advisory — it depends on how fast the shared incumbent rises under a
// given schedule, and only a single sequential worker makes it
// reproducible across machines.

// TestGoldenTable locks the aligned-table rendering of a small
// deterministic experiment, including per-seed verbose lines.
func TestGoldenTable(t *testing.T) {
	got := runGolden(t,
		"-gen", "powerlaw", "-n", "200", "-k", "8", "-seeds", "2",
		"-samples", "40", "-starts", "4", "-seed", "7", "-workers", "1", "-v")
	checkGolden(t, "table.golden", got)
}

// TestGoldenCSV locks the CSV rendering of the same experiment on an
// Erdős–Rényi instance with a solver subset.
func TestGoldenCSV(t *testing.T) {
	got := runGolden(t,
		"-gen", "er", "-n", "300", "-avgdeg", "6", "-k", "6", "-seeds", "2",
		"-samples", "25", "-starts", "3", "-seed", "11", "-workers", "1",
		"-algo", "dgreedy,cbas,cbasnd", "-csv")
	checkGolden(t, "csv.golden", got)
}

// TestZeroSamplesCLI: the old Options could not express a zero sample
// budget; the Request path can — greedy-seeded solvers run fine with it.
func TestZeroSamplesCLI(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(),
		[]string{"-n", "100", "-k", "5", "-seeds", "1", "-samples", "0", "-algo", "dgreedy,cbas"},
		&buf)
	if err != nil {
		t.Fatalf("-samples 0: %v", err)
	}
	if !strings.Contains(buf.String(), "cbas") {
		t.Errorf("missing cbas row in:\n%s", buf.String())
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-k", "0"},
		{"-samples", "-1"},
		{"-starts", "0"},
		{"-seeds", "0"},
		{"-sampler", "linear"},
		{"-noprune"},
		{"-algo", "oracle"},
		{"-gen", "smallworld"},
		{"-objective", "budget"},
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestBatchMode: -batch runs each item of a JSON file against one
// generated instance and reports per-item rows whose willingness matches
// a direct solve of the same (graph, algo, request) — the CLI front end
// of the batch path adds presentation, not semantics.
func TestBatchMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "items.json")
	items := `[
		{"algo":"dgreedy","request":{"k":6,"seed":3}},
		{"algo":"cbas","request":{"k":6,"samples":20,"seed":3}},
		{"algo":"cbasnd","request":{"k":4,"samples":20,"seed":3}}
	]`
	if err := os.WriteFile(path, []byte(items), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(context.Background(),
		[]string{"-gen", "er", "-n", "300", "-avgdeg", "6", "-seed", "11", "-batch", path, "-csv"},
		&buf)
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header plus one row per item.
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	g, err := gen.Spec{Kind: "er", N: 300, AvgDeg: 6, Seed: 11}.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantReq := core.DefaultRequest(6)
	wantReq.Samples = 20
	wantReq.Seed = 3
	want, err := (solver.CBAS{}).Solve(context.Background(), g, wantReq)
	if err != nil {
		t.Fatal(err)
	}
	// Row 2 (item 1) is the cbas item; column 3 is W.
	cells := strings.Split(lines[2], ",")
	if len(cells) != 7 || cells[1] != "cbas" {
		t.Fatalf("unexpected cbas row %q", lines[2])
	}
	gotW, err := strconv.ParseFloat(cells[3], 64)
	if err != nil {
		t.Fatal(err)
	}
	// The table renderer rounds to 4 decimals; compare at that precision.
	if diff := gotW - want.Best.Willingness; diff > 1e-3 || diff < -1e-3 {
		t.Errorf("batch cbas W = %v, want %v", gotW, want.Best.Willingness)
	}

	// Bad batch files fail loudly.
	for name, content := range map[string]string{
		"empty.json":   `[]`,
		"unknown.json": `[{"algo":"oracle","request":{"k":5}}]`,
		"badreq.json":  `[{"algo":"cbas","request":{"k":0}}]`,
		"badkey.json":  `[{"algo":"cbas","request":{"k":5},"extra":1}]`,
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(context.Background(), []string{"-n", "50", "-batch", p}, &bytes.Buffer{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := run(context.Background(), []string{"-batch", filepath.Join(dir, "missing.json")}, &bytes.Buffer{}); err == nil {
		t.Error("missing batch file accepted")
	}
}

// TestCancelledRun: the CLI surfaces context cancellation instead of
// running the full experiment.
func TestCancelledRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-n", "100", "-k", "5", "-seeds", "1"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("err = %v, want context canceled", err)
	}
}
