// Command waso runs the paper's experiment loop end to end: generate (or
// regenerate per seed) a synthetic social network, run the selected WASO
// solvers, and print a stats.Table comparing solution quality and runtime —
// the same rows the paper's figures report.
//
// Example:
//
//	waso -gen powerlaw -n 1000 -k 10 -algo all
//	waso -gen er -n 5000 -avgdeg 12 -k 20 -algo cbas,cbasnd -seeds 10 -csv
//	waso -gen powerlaw -n 10000 -batch items.json          # batch mode
//
// Batch mode (-batch) reads a JSON file of {algo, request} items — the
// same item shape POST /v1/solve/batch accepts — and runs them all against
// one generated instance through the shared per-graph state and bounded
// executor the server uses, printing one row per item.
//
// The CLI shares its solving path with the wasod server: both build a
// core.Request and dispatch through the solver registry, so a (graph,
// algo, request) triple produces the identical report in either front end.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"waso/internal/core"
	"waso/internal/gen"
	"waso/internal/objective"
	"waso/internal/service"
	"waso/internal/solver"
	"waso/internal/stats"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "waso:", err)
		os.Exit(1)
	}
}

type config struct {
	genKind   string
	n         int
	avgDeg    float64
	k         int
	algos     string
	seeds     int
	seed      uint64
	samples   int
	starts    int
	workers   int
	alpha     float64
	regions   string
	objective string
	csv       bool
	verbose   bool
	batch     string
	list      bool
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("waso", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.genKind, "gen", "powerlaw", "graph generator: powerlaw (preferential attachment) or er (Erdős–Rényi)")
	fs.IntVar(&cfg.n, "n", 1000, "node count")
	fs.Float64Var(&cfg.avgDeg, "avgdeg", 8, "target average degree")
	fs.IntVar(&cfg.k, "k", 10, "maximum group size k")
	fs.StringVar(&cfg.algos, "algo", "all", "comma-separated solvers ("+strings.Join(solver.Names(), ",")+") or all")
	fs.IntVar(&cfg.seeds, "seeds", 5, "number of instance seeds to average over")
	fs.Uint64Var(&cfg.seed, "seed", 1, "base seed; instance i uses seed+i")
	fs.IntVar(&cfg.samples, "samples", core.DefaultSamples, "random samples per start node (0 = greedy completion only)")
	fs.IntVar(&cfg.starts, "starts", core.DefaultStarts, "start nodes per solver run")
	fs.IntVar(&cfg.workers, "workers", 0, "size of the executor the solves run on (0 = GOMAXPROCS)")
	fs.Float64Var(&cfg.alpha, "alpha", core.DefaultAlpha, "CBASND adapted-probability exponent")
	fs.StringVar(&cfg.regions, "regions", string(core.RegionAuto), "per-start (k−1)-hop search regions: auto, off or always (results-neutral)")
	fs.StringVar(&cfg.objective, "objective", core.DefaultObjective, "scoring objective ("+strings.Join(objective.Names(), ",")+")")
	fs.BoolVar(&cfg.csv, "csv", false, "emit CSV instead of an aligned table")
	fs.BoolVar(&cfg.verbose, "v", false, "print per-seed solutions")
	fs.StringVar(&cfg.batch, "batch", "", "path to a JSON file of batch items ({algo, request} pairs) to run against one generated instance")
	fs.BoolVar(&cfg.list, "list", false, "print the registered solvers and objectives, then exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if cfg.list {
		fmt.Fprintf(out, "solvers:    %s\n", strings.Join(solver.Names(), ", "))
		fmt.Fprintf(out, "objectives: %s\n", strings.Join(objective.Names(), ", "))
		return nil
	}
	if cfg.batch != "" {
		return runBatch(ctx, cfg, out)
	}

	req := core.DefaultRequest(cfg.k)
	req.Starts = cfg.starts
	req.Samples = cfg.samples
	req.Alpha = cfg.alpha
	req.Region = core.RegionMode(cfg.regions)
	req.Objective = cfg.objective
	if err := req.Validate(); err != nil {
		return err
	}
	obj, err := objective.New(cfg.objective)
	if err != nil {
		return err
	}
	if cfg.seeds < 1 {
		return fmt.Errorf("-seeds must be ≥ 1, got %d", cfg.seeds)
	}
	solvers, err := selectSolvers(cfg.algos)
	if err != nil {
		return err
	}
	// Every solve of the run schedules its tasks on one -workers-sized
	// executor; Best does not depend on its size.
	ex := solver.NewExecutor(cfg.workers)
	defer ex.Close()
	ctx = solver.WithExecutor(ctx, ex)

	type algoStats struct {
		will, millis []float64
		samples      int64
		pruned       int64
	}
	acc := make(map[string]*algoStats, len(solvers))
	for _, s := range solvers {
		acc[s.Name()] = &algoStats{}
	}

	for i := 0; i < cfg.seeds; i++ {
		instanceSeed := cfg.seed + uint64(i)
		g, err := gen.Spec{Kind: cfg.genKind, N: cfg.n, AvgDeg: cfg.avgDeg, Seed: instanceSeed}.Build()
		if err != nil {
			return err
		}
		if cfg.verbose {
			fmt.Fprintf(out, "# seed %d: n=%d m=%d avgdeg=%.2f\n", instanceSeed, g.N(), g.M(), g.AvgDegree())
		}
		b := objective.Bind(obj, g)
		for _, s := range solvers {
			r := req
			r.Seed = instanceSeed
			rep, err := s.Solve(ctx, g, r)
			if err != nil {
				return fmt.Errorf("%s on seed %d: %w", s.Name(), instanceSeed, err)
			}
			if err := check(b, cfg.k, rep); err != nil {
				return fmt.Errorf("%s on seed %d: %w", s.Name(), instanceSeed, err)
			}
			a := acc[s.Name()]
			a.will = append(a.will, rep.Best.Willingness)
			a.millis = append(a.millis, rep.ElapsedMillis())
			a.samples += rep.SamplesDrawn
			a.pruned += rep.Pruned
			if cfg.verbose {
				fmt.Fprintf(out, "#   %-8s %v (%.2fms, %d/%d samples pruned)\n",
					s.Name(), rep.Best, rep.ElapsedMillis(), rep.Pruned, rep.SamplesDrawn)
			}
		}
	}

	title := fmt.Sprintf("WASO %s n=%d k=%d avgdeg=%g seeds=%d samples=%d starts=%d objective=%s",
		cfg.genKind, cfg.n, cfg.k, cfg.avgDeg, cfg.seeds, cfg.samples, cfg.starts, obj.Name())
	t := stats.NewTable(title,
		"algo", "meanW", "stdW", "minW", "maxW", "mean_ms", "samples", "pruned")
	for _, s := range solvers {
		a := acc[s.Name()]
		lo, hi := stats.MinMax(a.will)
		t.AddRow(s.Name(), stats.Mean(a.will), stats.StdDev(a.will), lo, hi,
			stats.Mean(a.millis), a.samples, a.pruned)
	}
	if cfg.csv {
		return t.CSV(out)
	}
	return t.Fprint(out)
}

// batchFileItem is one entry of a -batch file: an algorithm name plus a
// request document that decodes over the paper defaults, exactly like a
// wasod solve body.
type batchFileItem struct {
	Algo    string          `json:"algo"`
	Request json.RawMessage `json:"request"`
}

// runBatch is the CLI front end of the batch path: generate one instance
// from the -gen/-n/-avgdeg/-seed flags and run every item of the -batch
// file against it through service.SolveBatch — literally the machinery
// behind POST /v1/solve/batch (shared ranking, workspace pool, region
// cache, bounded executor, concurrent items), so the two front ends
// cannot drift. The CLI is stricter than the server about failures: the
// first item error aborts the run, and every solution is re-checked
// against the solver invariants.
func runBatch(ctx context.Context, cfg config, out io.Writer) error {
	data, err := os.ReadFile(cfg.batch)
	if err != nil {
		return err
	}
	var fileItems []batchFileItem
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fileItems); err != nil {
		return fmt.Errorf("%s: %w", cfg.batch, err)
	}
	// Items are fully explicit documents: the experiment flags deliberately
	// do not leak into them, and they run on the service's own executor,
	// exactly as they do on the wire.
	items := make([]core.BatchItem, len(fileItems))
	for i, fi := range fileItems {
		req, err := core.DecodeRequest(fi.Request)
		if err != nil {
			return fmt.Errorf("items[%d]: %w", i, err)
		}
		items[i] = core.BatchItem{Algo: fi.Algo, Request: req}
	}

	g, err := gen.Spec{Kind: cfg.genKind, N: cfg.n, AvgDeg: cfg.avgDeg, Seed: cfg.seed}.Build()
	if err != nil {
		return err
	}
	svc := service.New(service.Config{})
	defer svc.Close()
	if _, err := svc.Load("batch", g, "cli"); err != nil {
		return err
	}
	reports, err := svc.SolveBatch(ctx, "batch", items)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.batch, err)
	}
	// Items choose their own objectives; bind each one once for re-checking.
	bindings := map[string]*objective.Binding{}
	for i, br := range reports {
		if br.Err != nil {
			return fmt.Errorf("items[%d] (%s): %w", i, items[i].Algo, br.Err)
		}
		obj, err := objective.New(items[i].Request.Objective)
		if err != nil {
			return fmt.Errorf("items[%d] (%s): %w", i, items[i].Algo, err)
		}
		b := bindings[obj.Name()]
		if b == nil {
			b = objective.Bind(obj, g)
			bindings[obj.Name()] = b
		}
		if err := check(b, items[i].Request.K, *br.Report); err != nil {
			return fmt.Errorf("items[%d] (%s): %w", i, items[i].Algo, err)
		}
	}

	title := fmt.Sprintf("WASO batch %s n=%d avgdeg=%g seed=%d items=%d",
		cfg.genKind, cfg.n, cfg.avgDeg, cfg.seed, len(items))
	t := stats.NewTable(title, "item", "algo", "k", "W", "ms", "samples", "pruned")
	for i, br := range reports {
		t.AddRow(i, br.Report.Algo, items[i].Request.K, br.Report.Best.Willingness,
			br.Report.ElapsedMillis(), br.Report.SamplesDrawn, br.Report.Pruned)
	}
	if cfg.csv {
		return t.CSV(out)
	}
	return t.Fprint(out)
}

// check enforces the solution invariants every solver promises: a
// non-empty connected group of at most k nodes whose stored objective
// value matches a from-scratch recomputation under the request's
// objective.
func check(b *objective.Binding, k int, rep core.Report) error {
	sol := rep.Best
	if sol.Size() == 0 || sol.Size() > k {
		return fmt.Errorf("solution size %d outside (0, %d]", sol.Size(), k)
	}
	if !b.Graph().Connected(sol.Nodes) {
		return fmt.Errorf("solution %v is not connected", sol.Nodes)
	}
	if w := b.Value(sol.Nodes); !closeEnough(w, sol.Willingness) {
		return fmt.Errorf("stored %s value %.6f != recomputed %.6f", b.Name(), sol.Willingness, w)
	}
	return nil
}

func closeEnough(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := 1.0
	if a > scale {
		scale = a
	}
	return diff <= 1e-6*scale
}

func selectSolvers(spec string) ([]solver.Solver, error) {
	if spec == "" || spec == "all" {
		return solver.All(), nil
	}
	var out []solver.Solver
	for _, name := range strings.Split(spec, ",") {
		s, err := solver.New(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
