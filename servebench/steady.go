package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// benchmarkFile is the subset of BENCHMARK.json the steadiness mode reads:
// each metric's bound, to judge the spreads it prints.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string   `json:"name"`
		Bound *float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs one workload n times as child processes of this binary,
// seeds seed, seed+1, …, and prints per metric the median, the quartiles
// (as Python's statistics.quantiles(values, n=4) gives them), the
// interquartile distance and the full range as shares of the median —
// the figures a steadiness check compares against each metric's bound.
// With BENCHMARK.json in the working directory it also prints each bound
// and whether the spread is under a third of it.
func steadiness(workload string, seed uint64, seconds, trace, n int, stdout, stderr io.Writer) int {
	if n < 2 {
		fmt.Fprintln(stderr, "servebench: --steady needs at least 2 runs")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for i := range n {
		s := seed + uint64(i)
		var out bytes.Buffer
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		res, perr := lastResult(out.Bytes())
		if runErr != nil || perr != nil || !res.Correct {
			failed++
			fmt.Fprintf(stdout, "run %d seed %d: FAILED (%v, %v)\n%s", i+1, s, runErr, perr, out.String())
			continue
		}
		names := make([]string, 0, len(res.Metrics))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			names = append(names, name)
		}
		slices.Sort(names)
		var line strings.Builder
		for _, name := range names {
			fmt.Fprintf(&line, " %s=%.6g", name, res.Metrics[name].Value)
		}
		fmt.Fprintf(stdout, "run %d seed %d:%s\n", i+1, s, line.String())
	}

	bounds := readBounds("BENCHMARK.json")
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Fprintf(stdout, "\n%s: %d runs, %d failed\n", workload, n, failed)
	fmt.Fprintf(stdout, "%-30s %-11s %14s %14s %14s %9s %9s %7s\n",
		"metric", "unit", "median", "q1", "q3", "iqr/med", "range/med", "bound")
	for _, name := range names {
		v := values[name]
		if len(v) < 2 {
			continue
		}
		sp := summarize(v)
		verdict := ""
		if b, ok := bounds[name]; ok {
			verdict = fmt.Sprintf("%7.3f", b)
			if sp.IQRFrac < b/3 {
				verdict += "  ok (iqr < bound/3)"
			} else {
				verdict += "  WIDE (iqr ≥ bound/3)"
			}
		}
		fmt.Fprintf(stdout, "%-30s %-11s %14.6g %14.6g %14.6g %9.4f %9.4f %s\n",
			name, units[name], sp.Median, sp.Q1, sp.Q3, sp.IQRFrac, sp.RangeFrac, verdict)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// lastResult parses the result object on the last non-empty line of out.
func lastResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}

// readBounds returns the end-to-end bounds of a BENCHMARK.json file, or
// none when it is absent or unreadable.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	raw, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var bf benchmarkFile
	if json.Unmarshal(raw, &bf) != nil {
		return out
	}
	for _, m := range bf.EndToEnd {
		if m.Bound != nil {
			out[m.Name] = *m.Bound
		}
	}
	return out
}
