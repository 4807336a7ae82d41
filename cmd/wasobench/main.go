// Command wasobench is the large-graph benchmark harness: it generates
// synthetic instances at production scale (100k–1M nodes), sweeps the
// solvers across worker counts, group sizes and region modes with and
// without the shared per-graph state (Prep, workspace pool, region cache),
// and emits a BENCH_solvers.json-style report. It exists alongside the
// go-test benchmarks (BenchmarkLargeGraph) so CI and operators can produce
// a machine-readable scaling trajectory in one shot:
//
//	wasobench -n 100000,1000000 -workers 1,2,4,8 -out bench-large.json
//	wasobench -gen er -ks 4 -regions auto,off -n 1000000   # locality sweep
//
// Row names match the go-test benchmark tree
// (BenchmarkLargeGraph/n=.../algo/workers=...), so wasobench output slots
// directly into BENCH_solvers.json. Default-valued sweep axes (powerlaw,
// k=10, regions=auto) are omitted from names, keeping them comparable
// across releases.
//
// wasobench is also the regression gate: -compare-base/-compare-new check
// a freshly generated report against a committed baseline row by row and
// fail on ns/op regressions beyond -compare-tolerance — the CI perf-smoke
// guard for the region-mode serving path.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"waso/internal/core"
	"waso/internal/gen"
	"waso/internal/graph"
	"waso/internal/objective"
	"waso/internal/solver"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wasobench:", err)
		os.Exit(1)
	}
}

// Default sweep-axis values, shared by the flag declarations and rowName
// so the "omit defaults from row names" rule can never drift from the
// flags it mirrors (the CI compare gate keys on these names).
const (
	defaultGen     = "powerlaw"
	defaultK       = 10
	defaultRegions = core.RegionAuto
)

// report is the BENCH_solvers.json document shape.
type report struct {
	Date       string  `json:"date"`
	Goos       string  `json:"goos"`
	Goarch     string  `json:"goarch"`
	CPU        string  `json:"cpu,omitempty"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Command    string  `json:"command"`
	Note       string  `json:"note"`
	Benchmarks []entry `json:"benchmarks"`
}

type entry struct {
	Name     string  `json:"name"`
	Iters    int     `json:"iterations"`
	NsPerOp  float64 `json:"ns_per_op"`
	Willing  float64 `json:"willingness,omitempty"`
	SamplesN int64   `json:"samples_drawn,omitempty"`
	PrunedN  int64   `json:"pruned,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wasobench", flag.ContinueOnError)
	var (
		ns       = fs.String("n", "100000", "comma-separated node counts")
		genKind  = fs.String("gen", defaultGen, "graph generator: powerlaw or er")
		avgDeg   = fs.Float64("avgdeg", 8, "target average degree")
		algos    = fs.String("algos", "cbas,cbasnd", "comma-separated solvers to sweep")
		ks       = fs.String("ks", strconv.Itoa(defaultK), "comma-separated maximum group sizes k")
		starts   = fs.Int("starts", 8, "start nodes per run")
		samples  = fs.Int("samples", 50, "random samples per start")
		workers  = fs.String("workers", "1,2,4,8", "comma-separated worker counts to sweep")
		regions  = fs.String("regions", string(defaultRegions), "comma-separated region modes to sweep (auto, off, always)")
		objs     = fs.String("objectives", core.DefaultObjective, "comma-separated scoring objectives to sweep ("+strings.Join(objective.Names(), ",")+")")
		reps     = fs.Int("reps", 3, "repetitions per configuration (fastest wins)")
		seed     = fs.Uint64("seed", 1, "graph and request seed")
		outPath  = fs.String("out", "", "write the JSON report here instead of stdout")
		skipCold = fs.Bool("skip-unprepped", false, "skip the unprepped (per-solve ranking) rows")

		cmpBase  = fs.String("compare-base", "", "compare mode: path of the committed baseline report")
		cmpNew   = fs.String("compare-new", "", "compare mode: path of the freshly generated report")
		cmpMatch = fs.String("compare-match", "", "compare mode: only gate rows whose name contains this substring")
		cmpTol   = fs.Float64("compare-tolerance", 1.25, "compare mode: fail when new/old ns_per_op exceeds this ratio")

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
	if (*cmpBase == "") != (*cmpNew == "") {
		return fmt.Errorf("compare mode needs both -compare-base and -compare-new")
	}
	if *cmpBase != "" {
		return runCompare(*cmpBase, *cmpNew, *cmpMatch, *cmpTol, out)
	}
	sizes, err := parseInts(*ns)
	if err != nil {
		return fmt.Errorf("-n: %w", err)
	}
	kSweep, err := parseInts(*ks)
	if err != nil {
		return fmt.Errorf("-ks: %w", err)
	}
	sweep, err := parseInts(*workers)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	if *reps < 1 {
		return fmt.Errorf("-reps must be ≥ 1, got %d", *reps)
	}
	var modes []core.RegionMode
	for _, m := range strings.Split(*regions, ",") {
		mode := core.RegionMode(strings.TrimSpace(m))
		if err := mode.Validate(); err != nil {
			return fmt.Errorf("-regions: %w", err)
		}
		modes = append(modes, mode)
	}
	var objSweep []objective.Objective
	for _, o := range strings.Split(*objs, ",") {
		obj, err := objective.New(strings.TrimSpace(o))
		if err != nil {
			return fmt.Errorf("-objectives: %w", err)
		}
		objSweep = append(objSweep, obj)
	}
	defaultObjOnly := len(objSweep) == 1 && objSweep[0].Name() == core.DefaultObjective

	// Fail on unknown solvers before any expensive graph build.
	algoNames := strings.Split(*algos, ",")
	for i, name := range algoNames {
		algoNames[i] = strings.TrimSpace(name)
		if _, err := solver.New(algoNames[i]); err != nil {
			return err
		}
	}

	if *overload {
		if !defaultObjOnly {
			// The overload gate exercises admission, not scoring
			// generality, so it stays on the default objective.
			return fmt.Errorf("-overload drives the default objective only, got -objectives=%q", *objs)
		}
		if *urlFlag == "" {
			return fmt.Errorf("-overload needs -url of a running wasod")
		}
		// The default -algos is a sweep; overload drives one algorithm, so
		// take its first entry unless the user explicitly asked for more.
		algosSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "algos" {
				algosSet = true
			}
		})
		if !algosSet {
			algoNames = algoNames[:1]
		}
		if len(sizes) > 1 || len(kSweep) > 1 || len(algoNames) > 1 || len(modes) > 1 {
			return fmt.Errorf("-overload drives a single configuration; got sweeps n=%q ks=%q algos=%q regions=%q",
				*ns, *ks, *algos, *regions)
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
			genKind: *genKind, n: sizes[0], avgDeg: *avgDeg, seed: *seed,
			algo: algoNames[0], k: kSweep[0], starts: *starts, samples: *samples,
			timeoutMS: *solveTO,
			conc:      *conc, phase: *phaseDur,
			factor: *odFactor, rate: *arrivalRate, maxInflight: *maxInflight,
			p99Factor: *p99Factor, goodputFrac: *goodputFrac,
		}
		return runOverload(cfg, *outPath, out, args)
	}

	// Raise GOMAXPROCS to the top of the sweep before the first solve sizes
	// the solver's default executor, so worker counts are not limited on
	// small machines; on fewer cores the high-worker rows then measure
	// scheduling overhead rather than speedup, which is the honest number
	// for that hardware.
	maxW := 1
	for _, w := range sweep {
		if w > maxW {
			maxW = w
		}
	}
	if maxW > runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(maxW)
	}

	rep := report{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Goos:       runtime.GOOS,
		Goarch:     runtime.GOARCH,
		CPU:        cpuModel(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Command:    "wasobench " + strings.Join(args, " "),
		Note: fmt.Sprintf("Large-graph scaling sweep: %s instances (avgdeg %g), %d starts x %d samples, "+
			"workers/k/region-mode swept over the sample-chunk scheduler with shared-incumbent pruning. "+
			"prepped rows share one solver.Prep, workspace pool and region cache per graph (the serving "+
			"path; extraction amortizes across reps exactly as it does across requests); unprepped rows "+
			"pay the per-solve partial ranking and any per-solve region extraction. Default sweep axes "+
			"(powerlaw, k=10, regions=auto) are omitted from row names.",
			*genKind, *avgDeg, *starts, *samples),
	}

	ctx := context.Background()
	for _, n := range sizes {
		fmt.Fprintf(os.Stderr, "wasobench: generating %s n=%d avgdeg=%g...\n", *genKind, n, *avgDeg)
		began := time.Now()
		g, err := gen.Spec{Kind: *genKind, N: n, AvgDeg: *avgDeg, Seed: *seed}.Build()
		if err != nil {
			return err
		}
		pool := solver.NewWorkspacePool(g)
		fmt.Fprintf(os.Stderr, "wasobench: n=%d m=%d built in %v\n", g.N(), g.M(), time.Since(began).Round(time.Millisecond))

		for _, obj := range objSweep {
			// Per-(graph, objective) shared state, exactly like the service
			// layer's objState; the workspace pool is objective-agnostic and
			// shared across the whole sweep.
			b := objective.Bind(obj, g)
			prep := solver.NewPrep(b)
			cache := solver.NewRegionCache(b, 0)
			warm := solver.WithRegionCache(solver.WithWorkspacePool(solver.WithPrep(ctx, prep), pool), cache)
			for _, k := range kSweep {
				for _, algoName := range algoNames {
					sv, err := solver.New(algoName)
					if err != nil {
						return err
					}
					req := core.DefaultRequest(k)
					req.Starts = *starts
					req.Samples = *samples
					req.Seed = *seed
					req.Objective = obj.Name()
					for _, mode := range modes {
						req.Region = mode
						for _, w := range sweep {
							req.Workers = w
							name := rowName(n, *genKind, k, algoName, w, mode, false, obj.Name())
							e, err := measure(warm, g, sv, req, name, *reps)
							if err != nil {
								return err
							}
							rep.Benchmarks = append(rep.Benchmarks, e)
						}
						if !*skipCold {
							req.Workers = 1
							name := rowName(n, *genKind, k, algoName, 1, mode, true, obj.Name())
							e, err := measure(ctx, g, sv, req, name, *reps)
							if err != nil {
								return err
							}
							rep.Benchmarks = append(rep.Benchmarks, e)
						}
					}
				}
			}
		}
	}

	return writeReport(out, *outPath, rep)
}

// rowName renders one benchmark row name. Default sweep-axis values are
// omitted so the canonical rows keep their historical names and stay
// comparable across releases. Non-default objectives get their own
// BenchmarkObjective tree: the historical BenchmarkLargeGraph rows stay
// untouched (and un-diluted) while the objective rows form a separately
// gateable family.
func rowName(n int, genKind string, k int, algo string, workers int, mode core.RegionMode, unprepped bool, objName string) string {
	var b strings.Builder
	if objName != core.DefaultObjective {
		fmt.Fprintf(&b, "BenchmarkObjective/obj=%s/n=%d", objName, n)
	} else {
		fmt.Fprintf(&b, "BenchmarkLargeGraph/n=%d", n)
	}
	if genKind != defaultGen {
		fmt.Fprintf(&b, "/gen=%s", genKind)
	}
	if k != defaultK {
		fmt.Fprintf(&b, "/k=%d", k)
	}
	fmt.Fprintf(&b, "/%s/workers=%d", algo, workers)
	if mode != defaultRegions {
		fmt.Fprintf(&b, "/regions=%s", mode)
	}
	if unprepped {
		b.WriteString("/unprepped")
	}
	return b.String()
}

// measure runs one untimed warmup solve (faulting in whatever pages and
// caches this configuration touches, so row order does not bias the
// numbers) and then reps timed runs, keeping the fastest wall clock — the
// way repeated go-test bench iterations report a best-effort steady
// state. The solution and counters come from the fastest run (the
// solution is identical across runs by determinism; Pruned is advisory).
func measure(ctx context.Context, g *graph.Graph, sv solver.Solver, req core.Request, name string, reps int) (entry, error) {
	if _, err := sv.Solve(ctx, g, req); err != nil {
		return entry{}, fmt.Errorf("%s: %w", name, err)
	}
	best := entry{Name: name, Iters: reps}
	for i := 0; i < reps; i++ {
		began := time.Now()
		rep, err := sv.Solve(ctx, g, req)
		if err != nil {
			return entry{}, fmt.Errorf("%s: %w", name, err)
		}
		ns := float64(time.Since(began).Nanoseconds())
		if i == 0 || ns < best.NsPerOp {
			best.NsPerOp = ns
			best.Willing = rep.Best.Willingness
			best.SamplesN = rep.SamplesDrawn
			best.PrunedN = rep.Pruned
		}
	}
	fmt.Fprintf(os.Stderr, "wasobench: %-60s %12.0f ns/op\n", best.Name, best.NsPerOp)
	return best, nil
}

// writeReport encodes rep as indented JSON to the file at outPath, or to
// out when outPath is empty. Close is checked, not deferred: the OS may
// only surface a write failure (a full disk, a vanished mount) at flush
// time, and a swallowed Close error would leave a truncated report that
// the compare gate then trusts.
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

// runCompare gates a fresh report against a committed baseline: every new
// row whose name matches the filter and exists in the baseline must not be
// slower than tolerance × the baseline ns/op. Matching zero rows is an
// error — a gate that silently checks nothing is worse than no gate.
func runCompare(basePath, newPath, match string, tolerance float64, out io.Writer) error {
	if tolerance <= 0 {
		return fmt.Errorf("-compare-tolerance must be > 0, got %v", tolerance)
	}
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	fresh, err := loadReport(newPath)
	if err != nil {
		return err
	}
	baseline := make(map[string]entry, len(base.Benchmarks))
	for _, row := range base.Benchmarks {
		baseline[row.Name] = row
	}
	matched, unmatched := 0, 0
	var regressions []string
	for _, row := range fresh.Benchmarks {
		if match != "" && !strings.Contains(row.Name, match) {
			continue
		}
		old, ok := baseline[row.Name]
		if !ok || old.NsPerOp <= 0 {
			// Surface coverage drift loudly: a renamed row that silently
			// dropped out of the gate would otherwise look like a pass.
			unmatched++
			fmt.Fprintf(out, "%-72s %14s %14.0f %8s UNMATCHED (not in baseline)\n", row.Name, "-", row.NsPerOp, "-")
			continue
		}
		matched++
		ratio := row.NsPerOp / old.NsPerOp
		verdict := "ok"
		if ratio > tolerance {
			verdict = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f ns/op (%.2fx > %.2fx)", row.Name, old.NsPerOp, row.NsPerOp, ratio, tolerance))
		}
		fmt.Fprintf(out, "%-72s %14.0f %14.0f %7.3fx %s\n", row.Name, old.NsPerOp, row.NsPerOp, ratio, verdict)
	}
	if matched == 0 {
		return fmt.Errorf("compare: no rows of %s matched %q against %s — the gate checked nothing", newPath, match, basePath)
	}
	// The opposite coverage hole: baseline rows the filter means to gate
	// that the fresh report no longer produces (a changed bench command
	// or renamed rows). Silent shrinkage would un-gate exactly the rows
	// the gate exists for, so it fails loudly.
	freshNames := make(map[string]bool, len(fresh.Benchmarks))
	for _, row := range fresh.Benchmarks {
		freshNames[row.Name] = true
	}
	var missing []string
	for _, row := range base.Benchmarks {
		if match != "" && !strings.Contains(row.Name, match) {
			continue
		}
		if row.NsPerOp > 0 && !freshNames[row.Name] {
			missing = append(missing, row.Name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("compare: %d baseline rows matching %q are absent from %s (gate coverage shrank):\n  %s",
			len(missing), match, newPath, strings.Join(missing, "\n  "))
	}
	if len(regressions) > 0 {
		return fmt.Errorf("compare: %d of %d rows regressed beyond %.2fx:\n  %s",
			len(regressions), matched, tolerance, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(out, "compare: %d rows within %.2fx of %s (%d fresh rows not in baseline)\n",
		matched, tolerance, basePath, unmatched)
	return nil
}

func loadReport(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// parseInts parses a comma-separated list of positive ints.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("value must be ≥ 1, got %d", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// cpuModel best-effort reads the CPU model name (linux); empty elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}
