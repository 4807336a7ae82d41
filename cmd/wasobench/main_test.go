package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// series is one benchmark row across runs: run i prints ns[i], plus the
// -benchmem columns when bytes is set.
type series struct {
	row           string
	ns            []float64
	bytes, allocs []float64
}

// writeRuns writes go test -bench text the way repeated runs of one test
// binary append it, with a GOMAXPROCS suffix, and returns the file's path.
func writeRuns(t *testing.T, rows ...series) string {
	t.Helper()
	var b strings.Builder
	for i := range rows[0].ns {
		b.WriteString("goos: linux\ngoarch: amd64\npkg: waso/internal/solver\ncpu: Test CPU @ 2.10GHz\n")
		for _, s := range rows {
			fmt.Fprintf(&b, "%s-2   \t      20\t%12g ns/op", s.row, s.ns[i])
			if s.bytes != nil {
				fmt.Fprintf(&b, "\t%10g B/op\t%8g allocs/op", s.bytes[i], s.allocs[i])
			}
			b.WriteString("\n")
		}
		b.WriteString("PASS\n")
	}
	path := filepath.Join(t.TempDir(), "runs.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func same(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func shift(vs []float64, d float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v + d
	}
	return out
}

// baseNs has median 100 and interquartile distance 102 − 98 = 4 under the
// nearest-rank percentile.
var baseNs = []float64{100, 104, 96, 102, 98, 101, 99, 103, 97, 100}

func compareRuns(t *testing.T, base, fresh []series) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run([]string{"-compare-base", writeRuns(t, base...), "-compare-new", writeRuns(t, fresh...)}, &buf)
	return buf.String(), err
}

// TestParseBench: -N suffixes are stripped, rows with and without the
// -benchmem columns parse, and everything that is not a result line is
// skipped.
func TestParseBench(t *testing.T) {
	text := `goos: linux
goarch: amd64
pkg: waso/internal/solver
cpu: Test CPU @ 2.10GHz
BenchmarkLargeGraph
BenchmarkLargeGraph/n=100000/cbas/workers=1-2         	      20	  52345678 ns/op	 1234567 B/op	    1499 allocs/op
BenchmarkLargeGraph/n=100000/gen=er/k=4/cbasnd/workers=1/regions=off-8 	      20	  1234.5 ns/op
BenchmarkSolvers/cbas       	    1000	      1500 ns/op
    bench_test.go:42: a log line
BenchmarkLargeGraph/n=100000/cbas/workers=1-2         	      20	  50000000 ns/op	 1234560 B/op	    1498 allocs/op
BenchmarkBroken-2   	 lots	  12 ns/op
BenchmarkHalf-2   	 20	  12 ns/op	 7
PASS
ok  	waso/internal/solver	12.3s
`
	runs, err := parseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"BenchmarkLargeGraph/n=100000/cbas/workers=1",
		"BenchmarkLargeGraph/n=100000/gen=er/k=4/cbasnd/workers=1/regions=off",
		"BenchmarkSolvers/cbas",
	}
	if fmt.Sprint(runs.names) != fmt.Sprint(want) {
		t.Fatalf("rows = %q, want %q", runs.names, want)
	}
	for _, c := range []struct {
		row, unit string
		want      []float64
	}{
		{want[0], "ns/op", []float64{52345678, 50000000}},
		{want[0], "B/op", []float64{1234567, 1234560}},
		{want[0], "allocs/op", []float64{1499, 1498}},
		{want[1], "ns/op", []float64{1234.5}},
		{want[2], "ns/op", []float64{1500}},
	} {
		if got := runs.vals[c.row][c.unit]; fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s %s = %v, want %v", c.row, c.unit, got, c.want)
		}
	}
	if _, ok := runs.vals[want[1]]["B/op"]; ok {
		t.Errorf("row without -benchmem columns has B/op values")
	}
}

// TestCompare: a cell is flagged only when the change is worse in every
// pair and its median exceeds the parent's by more than the parent's IQR.
func TestCompare(t *testing.T) {
	const row = "BenchmarkLargeGraph/n=100000/cbasnd/workers=1"
	nineOfTen := shift(baseNs, 10)
	nineOfTen[3] = baseNs[3] - 1
	oneTie := shift(baseNs, 10)
	oneTie[0] = baseNs[0]
	for _, tc := range []struct {
		name       string
		ns, allocs []float64
		flagged    string
	}{
		{name: "worse in all pairs beyond the IQR", ns: shift(baseNs, 10), flagged: "ns/op"},
		{name: "worse in 9 of 10 pairs", ns: nineOfTen},
		{name: "a tie is not worse", ns: oneTie},
		{name: "all ties", ns: baseNs},
		{name: "worse in all pairs within the IQR", ns: shift(baseNs, 3)},
		{name: "better", ns: shift(baseNs, -20)},
		{name: "allocs rise over a constant parent", ns: baseNs, allocs: same(10, 1500), flagged: "allocs/op"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := tc.allocs
			if allocs == nil {
				allocs = same(10, 1499)
			}
			base := series{row, baseNs, same(10, 4096), same(10, 1499)}
			out, err := compareRuns(t, []series{base}, []series{{row, tc.ns, same(10, 4096), allocs}})
			if (err != nil) != (tc.flagged != "") {
				t.Fatalf("err = %v, want flagged %q\n%s", err, tc.flagged, out)
			}
			for _, line := range strings.Split(out, "\n") {
				if f := strings.Fields(line); len(f) > 1 && f[0] == row {
					if got := strings.HasSuffix(line, "REGRESSED"); got != (f[1] == tc.flagged) {
						t.Errorf("%s: REGRESSED = %v\n%s", f[1], got, out)
					}
				}
			}
		})
	}
}

// TestCompareCoverage: a parent row missing from the change, a parent
// file without rows and a cell with fewer than 5 pairs each fail; rows
// only the change has are listed and pass.
func TestCompareCoverage(t *testing.T) {
	a := series{"BenchmarkLargeGraph/n=100000/cbas/workers=1", baseNs, same(10, 4096), same(10, 1499)}
	b := series{"BenchmarkLargeGraph/n=100000/cbas/workers=2", baseNs, same(10, 4096), same(10, 1499)}
	extra := series{"BenchmarkLargeGraph/n=100000/obj=friend/cbasnd/workers=1", baseNs, same(10, 4096), same(10, 1499)}

	if out, err := compareRuns(t, []series{a, b}, []series{a}); err == nil || !strings.Contains(err.Error(), b.row) {
		t.Errorf("parent row missing from the change: err = %v\n%s", err, out)
	}
	out, err := compareRuns(t, []series{a}, []series{a, extra})
	if err != nil {
		t.Errorf("extra row in the change: %v\n%s", err, out)
	}
	if !strings.Contains(out, extra.row+" ") || !strings.Contains(out, "not gated") {
		t.Errorf("extra row not listed:\n%s", out)
	}
	four := series{a.row, baseNs[:4], same(4, 4096), same(4, 1499)}
	if out, err := compareRuns(t, []series{four}, []series{four}); err == nil {
		t.Errorf("4 pairs accepted\n%s", out)
	}
	noMem := series{row: a.row, ns: baseNs}
	if out, err := compareRuns(t, []series{a}, []series{noMem}); err == nil {
		t.Errorf("change run without -benchmem accepted against a parent with it\n%s", out)
	}

	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("goos: linux\nPASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-compare-base", empty, "-compare-new", writeRuns(t, a)}, &bytes.Buffer{}); err == nil {
		t.Error("parent file without rows accepted")
	}
}

// TestHarnessBadFlags: wasobench runs one mode at a time and refuses to
// guess one.
func TestHarnessBadFlags(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{},
		{"-n", "1000"},
		{"-compare-base", "base.txt"},
		{"-compare-new", "new.txt"},
		{"-overload", "-url", "http://x", "-compare-base", "a", "-compare-new", "b"},
		{"-compare-base", filepath.Join(dir, "absent"), "-compare-new", filepath.Join(dir, "absent")},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
