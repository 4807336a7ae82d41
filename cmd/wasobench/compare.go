package main

// Compare mode: the A/B perf gate. Both inputs are `go test -bench
// -benchmem` text from the same host, the parent's runs in one file and
// the change's in the other, run in alternating pairs (ab.sh). Pair i of a
// row is its i-th occurrence in each file. A (row, unit) cell regresses
// only when the change is worse in every pair and its median exceeds the
// parent's by more than the parent's own interquartile distance: an
// unchanged row is worse in all N pairs with chance 2^−N, and a host whose
// runs swing widely widens the margin instead of failing the gate.
//
// All pairs rather than nine in ten: the gate tests ~40 cells per run, and
// under the 9-of-10 rule a no-change run already flagged one of them.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// gatedUnits are the columns the gate checks; lower is better for all.
var gatedUnits = []string{"ns/op", "B/op", "allocs/op"}

// minPairs is the fewest pairs a cell may have. With 5, an unchanged row
// is worse in all of them with chance 1/32.
const minPairs = 5

// benchRuns is one side's parsed output: per row (name without its -N
// GOMAXPROCS suffix) and unit, the values in file order. names keeps the
// order rows first appear in.
type benchRuns struct {
	names []string
	vals  map[string]map[string][]float64
}

// parseBench reads go test -bench output. Lines that are not benchmark
// results (headers, PASS, logs) are skipped.
func parseBench(r io.Reader) (benchRuns, error) {
	runs := benchRuns{vals: map[string]map[string][]float64{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		vals := make([]float64, 0, len(f)/2-1)
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			vals = append(vals, v)
		}
		if len(vals) != len(f)/2-1 {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		row, ok := runs.vals[name]
		if !ok {
			row = map[string][]float64{}
			runs.vals[name] = row
			runs.names = append(runs.names, name)
		}
		for i, v := range vals {
			unit := f[3+2*i]
			row[unit] = append(row[unit], v)
		}
	}
	return runs, sc.Err()
}

func loadBench(path string) (benchRuns, error) {
	f, err := os.Open(path)
	if err != nil {
		return benchRuns{}, err
	}
	defer f.Close()
	runs, err := parseBench(f)
	if err != nil {
		return benchRuns{}, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// runCompare gates the change's runs against the parent's. Every parent
// row must appear in the change's output with at least minPairs pairs of
// each gated unit the parent has; rows only the change has are listed and
// not gated; a parent file without rows fails, since a gate that checks
// nothing is worse than none.
func runCompare(basePath, newPath string, out io.Writer) error {
	base, err := loadBench(basePath)
	if err != nil {
		return err
	}
	fresh, err := loadBench(newPath)
	if err != nil {
		return err
	}
	if len(base.names) == 0 {
		return fmt.Errorf("compare: %s holds no benchmark rows — the gate checked nothing", basePath)
	}
	fmt.Fprintf(out, "%-72s %-9s %14s %14s %8s %7s %12s\n",
		"row", "unit", "base median", "new median", "ratio", "worse", "base IQR")
	var missing, short, regressed []string
	cells := 0
	for _, name := range base.names {
		got, ok := fresh.vals[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		for _, unit := range gatedUnits {
			b, ok := base.vals[name][unit]
			if !ok {
				continue
			}
			c := got[unit]
			pairs := min(len(b), len(c))
			if pairs < minPairs {
				short = append(short, fmt.Sprintf("%s %s: %d pairs", name, unit, pairs))
				continue
			}
			b, c = b[:pairs], c[:pairs]
			worse := 0
			for i := range b {
				if c[i] > b[i] {
					worse++
				}
			}
			bs, cs := slices.Sorted(slices.Values(b)), slices.Sorted(slices.Values(c))
			bMed, cMed := percentile(bs, 50), percentile(cs, 50)
			iqr := percentile(bs, 75) - percentile(bs, 25)
			ratio := 1.0
			if bMed != 0 {
				ratio = cMed / bMed
			} else if cMed != 0 {
				ratio = math.Inf(1)
			}
			verdict := "ok"
			if worse == pairs && cMed-bMed > iqr {
				verdict = "REGRESSED"
				regressed = append(regressed, fmt.Sprintf("%s %s: %s -> %s (%.3fx), worse in %d of %d pairs, base IQR %s",
					name, unit, num(bMed), num(cMed), ratio, worse, pairs, num(iqr)))
			}
			cells++
			fmt.Fprintf(out, "%-72s %-9s %14s %14s %7.3fx %4d/%-2d %12s %s\n",
				name, unit, num(bMed), num(cMed), ratio, worse, pairs, num(iqr), verdict)
		}
	}
	for _, name := range fresh.names {
		if _, ok := base.vals[name]; !ok {
			fmt.Fprintf(out, "%-72s new row, not gated\n", name)
		}
	}
	switch {
	case len(missing) > 0:
		return fmt.Errorf("compare: %d rows of %s are absent from %s (gate coverage shrank):\n  %s",
			len(missing), basePath, newPath, strings.Join(missing, "\n  "))
	case len(short) > 0:
		return fmt.Errorf("compare: %d cells have fewer than %d pairs:\n  %s",
			len(short), minPairs, strings.Join(short, "\n  "))
	case cells == 0:
		return fmt.Errorf("compare: no row of %s has a %s column — the gate checked nothing",
			basePath, strings.Join(gatedUnits, ", "))
	case len(regressed) > 0:
		return fmt.Errorf("compare: %d of %d cells regressed:\n  %s",
			len(regressed), cells, strings.Join(regressed, "\n  "))
	}
	fmt.Fprintf(out, "compare: %d cells of %d rows, none regressed\n", cells, len(base.names))
	return nil
}

// num formats a table value: integers without a fraction, others to
// two places.
func num(v float64) string {
	if v == math.Trunc(v) {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}
