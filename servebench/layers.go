package main

import (
	"fmt"
	"time"
)

// runTraced runs the replica twice over the run's inputs: untraced, for
// the service and tracing overheads, then traced, for the per-layer
// figures.
func runTraced(in *inputs) (untraced, traced *replicaRun, tr *tracer, err error) {
	untraced, err = runReplica(in, nil)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("untraced replica: %w", err)
	}
	items := len(in.bulk) * in.w.batchItems
	tr = newTracer(1024 + 6*len(in.solves) + 3*items + 16*len(in.writes))
	traced, err = runReplica(in, tr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("traced replica: %w", err)
	}
	return untraced, traced, tr, nil
}

// fidelity checks that the replica stands for the service: every answer of
// both replica passes is bit-identical to the service's, and the replica's
// region plan touched the cache exactly as the solver inside the service
// did. Each differing answer counts as a failed operation.
func fidelity(chk *checker, svc *serviceRun, untraced, traced *replicaRun) {
	for _, p := range []struct {
		name string
		r    *replicaRun
	}{{"untraced replica", untraced}, {"traced replica", traced}} {
		if d := sameAnswers(svc.run.solves, p.r.run.solves); d > 0 {
			chk.fail(d, fmt.Errorf("%s: %d interactive answers differ from the service's", p.name, d))
		}
		if d := sameAnswers(svc.run.batchSols, p.r.run.batchSols); d > 0 {
			chk.fail(d, fmt.Errorf("%s: %d bulk answers differ from the service's", p.name, d))
		}
		if want := uint64(svc.regEnd["waso_region_cache_misses_total"]); p.r.misses != want || p.r.extracts != int64(want) {
			chk.fail(1, fmt.Errorf("%s: region plan diverged: %d cache misses (%d by its own plan), service had %d",
				p.name, p.r.misses, p.r.extracts, want))
		}
	}
}

// perLayer is the traced run's metrics. Span-timed figures are mean self
// time per call (a span's duration minus what its child spans cover) in
// the traced replica, over set-up and run; counts come from the layers'
// Stats() and from the service's metrics registry across the run.
func perLayer(svc *serviceRun, untraced, traced *replicaRun, agg map[string]layerTotals, spans []span) []metric {
	const ms, us = time.Millisecond, time.Microsecond
	reg := svc.reg
	hits, misses := reg["waso_region_cache_hits_total"], reg["waso_region_cache_misses_total"]
	served := float64(len(svc.run.solves) + len(svc.run.batchSols))
	r := &svc.run
	svcP50 := percentile(millis(r.solveLat), 50)
	untracedP50 := percentile(millis(untraced.run.solveLat), 50)
	tracedP50 := percentile(millis(traced.run.solveLat), 50)
	writes := millis(r.writeLat)
	return []metric{
		{"core.decode_us", "us", agg[spanDecode].meanSelf(us)},
		{"core.encode_us", "us", agg[spanEncode].meanSelf(us)},
		{"graph.decode_ms", "ms", agg[spanGraphDec].meanSelf(ms)},
		{"graph.apply_ms", "ms", agg[spanApply].meanSelf(ms)},
		{"graph.hop_ms", "ms", agg[spanHop].meanSelf(ms)},
		{"graph.extracts", "count", float64(agg[spanExtract].calls)},
		{"graph.extract_ms", "ms", agg[spanExtract].meanSelf(ms)},
		{"objective.bind_us", "us", agg[spanBind].meanSelf(us)},
		{"solver.prep_ms", "ms", agg[spanPrep].meanSelf(ms)},
		{"solver.rescore_ms", "ms", agg[spanRescore].meanSelf(ms)},
		{"solver.clone_ms", "ms", agg[spanClone].meanSelf(ms)},
		{"solver.pool_build_us", "us", agg[spanPoolBuild].meanSelf(us)},
		{"solver.region_lookups", "count", hits + misses},
		{"solver.region_hit_ratio", "ratio", ratio(hits, hits+misses)},
		{"solver.region_invalidations", "count", reg["waso_region_cache_invalidations_total"]},
		{"solver.pool_allocs_per_solve", "count/solve", ratio(reg["waso_workspace_pool_allocs_total"], served)},
		{"solver.solve_ms", "ms", interactiveSolveMean(spans)},
		{"solver.samples_per_solve", "count/solve", ratio(float64(r.samples), float64(len(r.solves)))},
		{"solver.pruned_ratio", "ratio", ratio(float64(r.pruned), float64(r.samples))},
		{"solver.tasks_per_solve", "count/solve", ratio(float64(untraced.tasks), float64(untraced.jobs))},
		{"solver.queue_wait_p50_ms", "ms", untraced.waitP50},
		{"solver.queue_wait_p99_ms", "ms", untraced.waitP99},
		{"solver.tasks_expired", "count", reg["waso_executor_tasks_expired_total"]},
		{"admit.admitted", "count", float64(svc.admit.Accepted)},
		{"admit.shed", "count", float64(svc.admit.ShedTotal)},
		{"admit.degraded", "count", float64(svc.admit.Degraded)},
		{"store.append_us", "us", agg[spanAppend].meanSelf(us)},
		{"store.fs_write_us", "us", agg[spanFSWrite].meanSelf(us)},
		{"store.fs_sync_us", "us", agg[spanFSSync].meanSelf(us)},
		{"store.snapshot_ms", "ms", agg[spanSnapshot].meanSelf(ms)},
		{"store.snapshots", "count", reg["waso_store_snapshots_total"]},
		{"store.append_bytes", "bytes", reg["waso_wal_append_bytes_total"]},
		{"store.fsyncs", "count", reg["waso_wal_fsyncs_total"]},
		{"store.recover_ms", "ms", agg[spanRecover].meanSelf(ms)},
		{"store.replay_records", "count", svc.regEnd["waso_store_recovery_records_total"]},
		{"service.overhead_ms", "ms", svcP50 - untracedP50},
		{"service.batch_p50_ms", "ms", percentile(millis(r.batchLat), 50)},
		{"service.mutate_p50_ms", "ms", percentile(writes, 50)},
		{"service.mutate_p99_ms", "ms", percentile(writes, 99)},
		{"bench.trace_overhead_frac", "ratio", ratio(tracedP50, untracedP50) - 1},
		{"bench.generator_late_ms", "ms", percentile(millis(r.late), 99)},
	}
}

// interactiveSolveMean is the mean duration in ms of Solver.Solve over the
// run's interactive requests (not warm-ups, not bulk items).
func interactiveSolveMean(spans []span) float64 {
	var total int64
	var n int
	for _, s := range spans {
		if s.name != spanSolve || s.req < 0 || s.req >= writeRequestBase || s.parent == noParent {
			continue
		}
		if spans[s.parent].name != spanRequest {
			continue
		}
		total += s.end - s.start
		n++
	}
	return ratio(float64(total), float64(n)) / 1e6
}
