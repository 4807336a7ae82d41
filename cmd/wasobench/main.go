// Command wasobench holds two gates that CI runs against the solver and
// the server:
//
//   - Compare mode (-compare-base/-compare-new) reads the text that
//     `go test -bench -benchmem` prints for a parent and a change, run in
//     alternating pairs on one host (ab.sh in this directory drives it),
//     and fails a row only when the change is worse in every pair by more
//     than the parent's own quartile spread:
//
//     wasobench -compare-base ab/base.txt -compare-new ab/new.txt
//
//   - Overload mode (-overload) drives a live wasod through calibrate,
//     overdrive and cooldown phases and asserts shed-don't-collapse:
//
//     wasobench -overload -url http://127.0.0.1:18123 -n 20000 -samples 400
//
// Solver timing itself lives in the go-test benchmarks
// (internal/solver BenchmarkLargeGraph); serving is benchmarked by
// servebench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"waso/internal/solver"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wasobench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wasobench", flag.ContinueOnError)
	var (
		n       = fs.Int("n", 100000, "overload mode: node count of the generated graph")
		genKind = fs.String("gen", "powerlaw", "overload mode: graph generator, powerlaw or er")
		avgDeg  = fs.Float64("avgdeg", 8, "overload mode: target average degree")
		algo    = fs.String("algos", "cbas", "overload mode: solver the requests name")
		k       = fs.Int("ks", 10, "overload mode: maximum group size k")
		starts  = fs.Int("starts", 8, "overload mode: start nodes per solve")
		samples = fs.Int("samples", 50, "overload mode: random samples per start")
		seed    = fs.Uint64("seed", 1, "overload mode: graph and request seed")
		outPath = fs.String("out", "", "overload mode: write the JSON report here instead of stdout")

		cmpBase = fs.String("compare-base", "", "compare mode: go test -bench -benchmem output of the parent")
		cmpNew  = fs.String("compare-new", "", "compare mode: go test -bench -benchmem output of the change, paired run by run with the parent's")

		overload    = fs.Bool("overload", false, "overload-smoke mode: drive a live wasod (-url) through calibrate/overdrive/cooldown phases and assert shed-don't-collapse")
		urlFlag     = fs.String("url", "", "overload mode: base URL of the running wasod server")
		graphID     = fs.String("graph", "bench-overload", "overload mode: graph id to create (or reuse) on the server")
		conc        = fs.Int("concurrency", 32, "overload mode: closed-loop clients in the calibrate and cooldown phases")
		phaseDur    = fs.Duration("phase", 3*time.Second, "overload mode: duration of each phase")
		odFactor    = fs.Float64("overdrive-factor", 4, "overload mode: open-loop arrival rate as a multiple of the calibrated rate")
		arrivalRate = fs.Float64("arrival-rate", 0, "overload mode: explicit open-loop arrivals/s (0 = overdrive-factor × calibrated)")
		p99Factor   = fs.Float64("p99-factor", 3, "overload mode: overdrive non-shed p99 must stay within this multiple of the unloaded p99")
		goodputFrac = fs.Float64("goodput-frac", 0.7, "overload mode: overdrive goodput floor as a fraction of the calibrated rate")
		maxInflight = fs.Int("max-inflight", 1024, "overload mode: client-side cap on open-loop in-flight requests")
		solveTO     = fs.Int64("solve-timeout-ms", 10000, "overload mode: per-request timeout_ms sent with each solve")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	compare := *cmpBase != "" || *cmpNew != ""
	switch {
	case compare && *overload:
		return fmt.Errorf("-overload and -compare-base/-compare-new are separate modes; pick one")
	case compare:
		if *cmpBase == "" || *cmpNew == "" {
			return fmt.Errorf("compare mode needs both -compare-base and -compare-new")
		}
		return runCompare(*cmpBase, *cmpNew, out)
	case !*overload:
		return fmt.Errorf("no mode selected: pass -compare-base and -compare-new, or -overload (see -h)")
	}

	if *urlFlag == "" {
		return fmt.Errorf("-overload needs -url of a running wasod")
	}
	if *n < 1 || *k < 1 {
		return fmt.Errorf("-n and -ks must be ≥ 1, got %d and %d", *n, *k)
	}
	if _, err := solver.New(*algo); err != nil {
		return fmt.Errorf("-algos: %w", err)
	}
	if *conc < 1 {
		return fmt.Errorf("-concurrency must be ≥ 1, got %d", *conc)
	}
	if *phaseDur <= 0 {
		return fmt.Errorf("-phase must be > 0, got %v", *phaseDur)
	}
	if *odFactor <= 1 && *arrivalRate <= 0 {
		return fmt.Errorf("-overdrive-factor must be > 1 (or set -arrival-rate), got %g", *odFactor)
	}
	cfg := overloadConfig{
		url: *urlFlag, graphID: *graphID,
		genKind: *genKind, n: *n, avgDeg: *avgDeg, seed: *seed,
		algo: *algo, k: *k, starts: *starts, samples: *samples,
		timeoutMS: *solveTO,
		conc:      *conc, phase: *phaseDur,
		factor: *odFactor, rate: *arrivalRate, maxInflight: *maxInflight,
		p99Factor: *p99Factor, goodputFrac: *goodputFrac,
	}
	return runOverload(cfg, *outPath, out, args)
}

// writeReport encodes rep as indented JSON to the file at outPath, or to
// out when outPath is empty. Close is checked, not deferred: the OS may
// only surface a write failure (a full disk, a vanished mount) at flush
// time, and a swallowed Close error would leave a truncated report.
func writeReport(out io.Writer, outPath string, rep any) error {
	if outPath == "" {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentile returns the p-th percentile of an ascending-sorted sample
// (nearest-rank method).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
