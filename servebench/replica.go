package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"waso/internal/core"
	"waso/internal/graph"
	"waso/internal/objective"
	"waso/internal/solver"
	"waso/internal/store"
)

// replica is the service's stack built by hand from the layers' exported
// functions, called in the order internal/service calls them, so that a
// span can be recorded around each call. It serves the same operations as
// the service and must give bit-identical answers. Writes and the solves
// that follow them run on one goroutine, so the per-version state needs no
// lock; bulk batches only run on a graph that is never written.
type replica struct {
	tr  *tracer  // nil: untraced
	fs  *timedFS // traced churn-durable only
	sv  solver.Solver
	obj objective.Objective
	ex  *solver.Executor
	st  *store.Store

	version uint64
	g       *graph.Graph
	b       *objective.Binding
	prep    *solver.Prep
	cache   *solver.RegionCache
	pool    *solver.WorkspacePool

	extracts  atomic.Int64 // region-cache misses taken by the replica's own plan
	setupTime time.Duration
}

// bootReplica builds the stack the way the service boots: decode the
// upload, or open and recover the durable image; then the workspace pool,
// objective binding, bound-score ranking, region cache and executor; then
// the warm-up requests.
func bootReplica(in *inputs, tr *tracer, image *memFS) (*replica, error) {
	sv, err := solver.New(algo)
	if err != nil {
		return nil, err
	}
	rp := &replica{tr: tr, sv: sv, obj: willingness()}
	began := time.Now()
	root := tr.begin(spanSetup, noParent, setupRequestID)
	if in.w.durable {
		var fsys store.FS = image
		if tr != nil {
			rp.fs = &timedFS{FS: image, tr: tr}
			fsys = rp.fs
		}
		s := rp.storeSpan(spanStoreOpen, root, setupRequestID)
		rp.st, err = store.Open(dataDir, store.Options{FS: fsys, Fsync: store.FsyncAlways})
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = rp.storeSpan(spanRecover, root, setupRequestID)
		recs, err := rp.st.Recover()
		tr.end(s)
		if err != nil {
			rp.close()
			return nil, err
		}
		if len(recs) != 1 {
			rp.close()
			return nil, fmt.Errorf("recovered %d graphs, want 1", len(recs))
		}
		rp.g, rp.version = recs[0].Graph, recs[0].Version
	} else {
		s := tr.begin(spanGraphDec, root, setupRequestID)
		rp.g, err = graph.Decode(bytes.NewReader(in.graphBytes))
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	s := tr.begin(spanPoolBuild, root, setupRequestID)
	rp.pool = solver.NewWorkspacePool(rp.g)
	tr.end(s)
	s = tr.begin(spanBind, root, setupRequestID)
	rp.b = objective.Bind(rp.obj, rp.g)
	tr.end(s)
	s = tr.begin(spanPrep, root, setupRequestID)
	rp.prep = solver.NewPrep(rp.b)
	tr.end(s)
	rp.cache = solver.NewRegionCache(rp.b, 0)
	rp.ex = solver.NewExecutor(0)
	for i, raw := range in.warmup {
		if _, err := rp.request(raw, root, setupRequestID); err != nil {
			rp.close()
			return nil, fmt.Errorf("warm-up %d: %w", i, err)
		}
	}
	tr.end(root)
	rp.setupTime = time.Since(began)
	return rp, nil
}

func (rp *replica) close() {
	if rp.ex != nil {
		rp.ex.Close()
	}
	if rp.st != nil {
		rp.st.Close()
	}
}

// storeSpan opens a span around a store call and makes it the parent of
// the filesystem spans the call causes.
func (rp *replica) storeSpan(name string, parent spanID, rid int64) spanID {
	s := rp.tr.begin(name, parent, rid)
	if rp.fs != nil {
		rp.fs.parent, rp.fs.req = s, rid
	}
	return s
}

func (rp *replica) binding() *objective.Binding { return rp.b }

func (rp *replica) solve(raw []byte, rid int64) (core.Report, error) {
	return rp.request(raw, noParent, rid)
}

// request serves one interactive request as the transport and service do:
// decode the wire JSON, solve on the interactive lane, encode the report.
func (rp *replica) request(raw []byte, parent spanID, rid int64) (core.Report, error) {
	tr := rp.tr
	root := tr.begin(spanRequest, parent, rid)
	defer tr.end(root)
	s := tr.begin(spanDecode, root, rid)
	req, err := core.DecodeRequest(raw)
	tr.end(s)
	if err != nil {
		return core.Report{}, fmt.Errorf("decode request: %w", err)
	}
	rep, err := rp.solveOn(req, solver.LaneInteractive, root, rid)
	if err != nil {
		return rep, err
	}
	s = tr.begin(spanEncode, root, rid)
	_, err = json.Marshal(rep)
	tr.end(s)
	return rep, err
}

// solveOn fetches the request's regions from the cache, then runs
// Solver.Solve on a context carrying the prep, region cache, workspace
// pool, executor and lane — the state the service attaches per solve.
func (rp *replica) solveOn(req core.Request, lane solver.Lane, parent spanID, rid int64) (core.Report, error) {
	tr := rp.tr
	s := tr.begin(spanRegions, parent, rid)
	for _, start := range regionStarts(rp.b, rp.prep, req) {
		before := rp.cache.Stats().Misses
		t0 := time.Now()
		rp.cache.Acquire(start, req.K-1)
		if rp.cache.Stats().Misses != before {
			rp.extracts.Add(1)
			tr.record(spanExtract, s, rid, t0)
		}
	}
	tr.end(s)
	ctx := solver.WithPrep(context.Background(), rp.prep)
	ctx = solver.WithRegionCache(ctx, rp.cache)
	ctx = solver.WithWorkspacePool(ctx, rp.pool)
	ctx = solver.WithExecutor(ctx, rp.ex)
	ctx = solver.WithLane(ctx, lane)
	s = tr.begin(spanSolve, parent, rid)
	rep, err := rp.sv.Solve(ctx, rp.g, req)
	tr.end(s)
	return rep, err
}

// batch serves one bulk call as Service.SolveBatch does: items spread over
// 4 × workers coordinator goroutines, each solving on the bulk lane.
func (rp *replica) batch(items []core.BatchItem, rid int64) ([]core.BatchReport, error) {
	root := rp.tr.begin(spanBatch, noParent, rid)
	defer rp.tr.end(root)
	out := make([]core.BatchReport, len(items))
	idx := make(chan int)
	var wg sync.WaitGroup
	for range min(4*rp.ex.Workers(), len(items)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i].Algo = items[i].Algo
				rep, err := rp.solveOn(items[i].Request, solver.LaneBulk, root, rid)
				if err != nil {
					out[i].Err, out[i].Error = err, err.Error()
					continue
				}
				out[i].Report = &rep
			}
		}()
	}
	for i := range items {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out, nil
}

// write applies one mutation batch in Service.Mutate's order: apply
// copy-on-write, append to the WAL, build the new workspace pool, find
// the cached balls the edit reaches, rebind, rescore, clone the region
// cache, swap, and snapshot when the WAL is due.
func (rp *replica) write(muts []graph.Mutation, version uint64, rid int64) error {
	tr := rp.tr
	root := tr.begin(spanWrite, noParent, rid)
	defer tr.end(root)
	if version != rp.version {
		return fmt.Errorf("write at version %d, replica is at %d", version, rp.version)
	}
	s := tr.begin(spanApply, root, rid)
	newG, touched, err := rp.g.ApplyMutations(muts)
	tr.end(s)
	if err != nil {
		return err
	}
	seq := version + 1
	s = rp.storeSpan(spanAppend, root, rid)
	snapDue, err := rp.st.Append(graphID, seq, muts)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(spanPoolBuild, root, rid)
	pool := solver.NewWorkspacePool(newG)
	tr.end(s)

	maxR := rp.cache.MaxRadius()
	s = tr.begin(spanHop, root, rid)
	distOld := rp.g.HopDistances(touched, maxR)
	distNew := newG.HopDistances(touched, maxR)
	tr.end(s)
	keep := func(start graph.NodeID, radius int) bool {
		if d, ok := distOld[start]; ok && d <= radius {
			return false
		}
		d, ok := distNew[start]
		return !ok || d > radius
	}
	s = tr.begin(spanBind, root, rid)
	nb := objective.Bind(rp.obj, newG)
	tr.end(s)
	s = tr.begin(spanRescore, root, rid)
	np := rp.prep.Rescore(nb, touched)
	tr.end(s)
	s = tr.begin(spanClone, root, rid)
	nc := rp.cache.CloneFor(nb, keep)
	tr.end(s)
	rp.version, rp.g, rp.b, rp.prep, rp.cache, rp.pool = seq, newG, nb, np, nc, pool

	if snapDue {
		s = rp.storeSpan(spanSnapshot, root, rid)
		err = rp.st.Snapshot(graphID, newG, seq)
		tr.end(s)
	}
	return err
}

// regionStarts mirrors the solver's region planning (internal/solver
// region.go): the starts of req whose (K−1)-hop ball is expected to fit the
// extraction cap and so is fetched from the region cache. Hub starts whose
// ball cannot fit never touch the cache. The trace run checks that this
// plan and the solver's agree, by comparing region-cache misses.
func regionStarts(b *objective.Binding, prep *solver.Prep, req core.Request) []graph.NodeID {
	if req.Region == core.RegionOff {
		return nil
	}
	g := b.Graph()
	starts := req.Starts
	if plan := b.Plan(req.K); plan.Starts > 0 {
		starts = plan.Starts
	}
	radius := req.K - 1
	limit := min(g.N()/4, 1<<15)
	if plan := b.Plan(radius + 1); plan.RegionCap > 0 {
		limit = min(plan.RegionCap, g.N())
	}
	if limit < 2 || !ballFits(g, g.AvgDegree(), radius, limit) {
		return nil
	}
	var out []graph.NodeID
	for _, s := range prep.Starts(starts) {
		if ballFits(g, float64(g.Degree(s))+1, radius, limit) {
			out = append(out, s)
		}
	}
	return out
}

// ballFits is the solver's branching estimate: a ball that starts at
// firstHop nodes and branches by the average degree for the remaining
// radius − 1 hops plausibly fits limit, with 4× headroom.
func ballFits(g *graph.Graph, firstHop float64, radius, limit int) bool {
	if radius <= 0 {
		return true
	}
	d := max(g.AvgDegree(), 1)
	est := firstHop
	for i := 1; i < radius; i++ {
		est *= d
		if est > 4*float64(limit) {
			return false
		}
	}
	return est <= 4*float64(limit)
}

// replicaRun is one pass of the replica: its set-up, its run, and the
// executor and region-cache counters across the run.
type replicaRun struct {
	run      runResult
	setup    time.Duration
	tasks    uint64  // executor tasks accepted during the run
	jobs     uint64  // executor jobs (solves) accepted during the run
	waitP50  float64 // executor queue wait over the run, ms
	waitP99  float64
	misses   uint64 // region-cache misses, set-up and run
	extracts int64  // of those, taken by the replica's own plan
}

// runReplica boots the replica (traced when tr is non-nil) and drives the
// run through it.
func runReplica(in *inputs, tr *tracer) (*replicaRun, error) {
	var image *memFS
	if in.w.durable {
		image = in.image.clone()
	}
	rp, err := bootReplica(in, tr, image)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	out := &replicaRun{setup: rp.setupTime}
	ex0, wait0 := rp.ex.Stats(), rp.ex.QueueWait().Snapshot()
	out.run = drive(rp, in)
	ex1, wait := rp.ex.Stats(), rp.ex.QueueWait().Snapshot().Sub(wait0)
	out.tasks, out.jobs = ex1.Tasks-ex0.Tasks, ex1.Jobs-ex0.Jobs
	out.waitP50 = wait.Percentile(50) * 1e3
	out.waitP99 = wait.Percentile(99) * 1e3
	out.misses = rp.cache.Stats().Misses
	out.extracts = rp.extracts.Load()
	return out, nil
}
