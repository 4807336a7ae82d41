// Command servebench is the repository's serving benchmark. It drives
// internal/service in-process with one of three generated workloads,
// checks every answer, and prints end-to-end metrics; a traced run
// re-drives the same inputs through a hand-built replica of the service's
// layers and prints per-layer metrics instead. See README.md.
//
//	servebench --workload hub-solve --seed 1 --seconds 15 --trace 0
//	servebench --workload regional-mixed --seed 1 --seconds 15 --steady 10
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setups is how many times a run sets the service up; setup_s is their
// median, so one slow boot cannot move it.
const setups = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named figure of the result line.
type metric struct {
	name  string
	unit  string
	value float64
}

// metricValue is a metric's JSON form.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object of the last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: hub-solve, regional-mixed or churn-durable")
	seed := fl.Uint64("seed", 1, "workload seed: request seeds, bulk items and the write script derive from it")
	seconds := fl.Int("seconds", 15, "run length; sets the operation counts through each workload's nominal rate")
	trace := fl.Int("trace", 0, "1 = traced run printing per-layer metrics; 0 = end-to-end metrics")
	steady := fl.Int("steady", 0, "if > 0, run the workload this many times as child processes, seeds --seed onwards, and print each metric's spread")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be ≥ 1, got %d", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	if *steady > 0 {
		return steadiness(w.name, *seed, *seconds, *trace, *steady, stdout, stderr)
	}

	began := time.Now()
	in, err := generate(w, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintf(stderr, "servebench: %s seed=%d: %d interactive requests, %d bulk batches, %d writes generated in %v\n",
		w.name, *seed, len(in.solves), len(in.bulk), len(in.writes), time.Since(began).Round(time.Millisecond))

	svc, err := runService(in, setups)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	chk := svc.setupChk
	chk.merge(&svc.run.check)
	var metrics []metric
	if *trace == 0 {
		metrics = endToEnd(svc)
		report(stdout, in, svc, nil, nil)
	} else {
		untraced, traced, tr, err := runTraced(in)
		if err != nil {
			fmt.Fprintln(stderr, "servebench:", err)
			return 1
		}
		chk.merge(&untraced.run.check)
		chk.merge(&traced.run.check)
		fidelity(&chk, svc, untraced, traced)
		metrics = perLayer(svc, untraced, traced, aggregate(tr.spans), tr.spans)
		report(stdout, in, svc, untraced, traced)
		if path, err := dumpSpans(w.name, *seed, tr.spans); err != nil {
			fmt.Fprintln(stderr, "servebench: writing spans:", err)
		} else {
			fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
		}
	}
	for _, e := range chk.errs {
		fmt.Fprintln(stdout, "FAILED:", e)
	}
	fmt.Fprintf(stdout, "ops: %d attempted, %d failed (ops_failed_frac %.6f); %d answers with W bit-identical to Binding.Value\n",
		chk.attempted, chk.failed, ratio(float64(chk.failed), float64(chk.attempted)), chk.exactW)
	res := result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd is the untraced run's metrics: what a user of the service sees.
func endToEnd(svc *serviceRun) []metric {
	r := &svc.run
	lat := millis(r.solveLat)
	return []metric{
		{"setup_s", "s", median(seconds(svc.setups))},
		{"solve_p50_ms", "ms", percentile(lat, 50)},
		{"solve_p99_ms", "ms", percentile(lat, 99)},
		{"solves_per_s", "1/s", float64(len(r.solveLat)) / r.wall.Seconds()},
		{"willingness_mean", "W", r.willSum / float64(len(r.solves))},
		{"heap_live_mb", "MiB", svc.heapLive},
	}
}

// seconds converts durations to seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// report prints the human-readable summary of a run: every end-to-end
// figure, including the side streams' latencies, which only some
// workloads have and which the result line therefore leaves out.
func report(w io.Writer, in *inputs, svc *serviceRun, untraced, traced *replicaRun) {
	r := &svc.run
	fmt.Fprintf(w, "workload %s: graph %s, %d vCPU (GOMAXPROCS %d)\n", in.w.name, in.w.spec, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "set-up: %d boots, median %.4f s, each %v; live heap %.3f MiB\n",
		len(svc.setups), median(seconds(svc.setups)), svc.setups, svc.heapLive)
	lat := millis(r.solveLat)
	fmt.Fprintf(w, "interactive: %d solves in %.2f s, %.1f/s, p50 %.3f ms, p99 %.3f ms, max %.3f ms, mean W %.6f\n",
		len(lat), r.wall.Seconds(), float64(len(lat))/r.wall.Seconds(),
		percentile(lat, 50), percentile(lat, 99), percentile(lat, 100), r.willSum/float64(len(r.solves)))
	fmt.Fprintf(w, "interactive latency histogram (ms): %s\n", histogram(lat))
	if len(r.batchLat) > 0 {
		bl, late := millis(r.batchLat), millis(r.late)
		fmt.Fprintf(w, "bulk: %d batches of %d at %.1f/s, batch_p50_ms %.3f, p99 %.3f ms; generator late p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
			len(bl), in.w.batchItems, in.w.batchesPerSec, percentile(bl, 50), percentile(bl, 99),
			percentile(late, 50), percentile(late, 99), percentile(late, 100))
	}
	if len(r.writeLat) > 0 {
		ml := millis(r.writeLat)
		fmt.Fprintf(w, "writes: %d batches, mutate_p50_ms %.3f, mutate_p99_ms %.3f, max %.3f ms\n",
			len(ml), percentile(ml, 50), percentile(ml, 99), percentile(ml, 100))
	}
	for _, rr := range []struct {
		name string
		r    *replicaRun
	}{{"replica (untraced)", untraced}, {"replica (traced)", traced}} {
		if rr.r == nil {
			continue
		}
		rl := millis(rr.r.run.solveLat)
		fmt.Fprintf(w, "%s: set-up %.4f s, %d solves, p50 %.3f ms, p99 %.3f ms\n",
			rr.name, rr.r.setup.Seconds(), len(rl), percentile(rl, 50), percentile(rl, 99))
	}
}

// dumpSpans writes the traced run's spans under the build output
// directory ($SERVEBENCH_OUT, default .bench_build) and returns the path.
func dumpSpans(workload string, seed uint64, spans []span) (string, error) {
	dir := os.Getenv("SERVEBENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
