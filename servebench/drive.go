package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"waso/internal/admit"
	"waso/internal/core"
	"waso/internal/graph"
	"waso/internal/objective"
	"waso/internal/service"
	"waso/internal/store"
)

// Request ids for spans: interactive requests use their index, writes and
// bulk batches are offset into ranges of their own.
const (
	writeRequestBase = int64(1) << 40
	batchRequestBase = int64(2) << 40
)

// stack is what one pass drives: the service, or the hand-built replica of
// its layers. Both serve the same generated operations.
type stack interface {
	// solve serves one interactive request from its wire JSON.
	solve(raw []byte, rid int64) (core.Report, error)
	// batch serves one bulk SolveBatch call.
	batch(items []core.BatchItem, rid int64) ([]core.BatchReport, error)
	// write applies one mutation batch to the graph at version.
	write(muts []graph.Mutation, version uint64, rid int64) error
	// binding is the willingness binding of the current graph version.
	binding() *objective.Binding
}

// runResult is what one pass over a run's operations measured.
type runResult struct {
	solveLat  []time.Duration // interactive, wire JSON in to encoded report out
	solves    []core.Solution // interactive answers, in request order
	batchLat  []time.Duration // bulk, from each batch's scheduled arrival
	batchSols []core.Solution // bulk item answers, in schedule order
	late      []time.Duration // how late the generator dispatched each batch
	writeLat  []time.Duration
	wall      time.Duration // the interactive stream, first request to last answer
	samples   int64         // Σ SamplesDrawn over interactive answers
	pruned    int64         // Σ Pruned over interactive answers
	willSum   float64       // Σ Best.Willingness over interactive answers
	check     checker
}

// drive runs the workload's operations against s: the closed-loop
// interactive client on this goroutine, the open-loop bulk stream (if any)
// beside it, and, on churn-durable, one write before every solvesPerWrite
// solves. Answers are checked against the graph version they were solved
// on, between operations and outside their timings.
func drive(s stack, in *inputs) runResult {
	res := runResult{
		solveLat: make([]time.Duration, len(in.solves)),
		solves:   make([]core.Solution, len(in.solves)),
	}
	b := s.binding()
	start := time.Now()
	bulkDone := driveBulk(s, in, b, start, &res)

	perWrite := in.w.solvesPerWrite
	for i, raw := range in.solves {
		if perWrite > 0 && i%perWrite == 0 {
			r := i / perWrite
			t0 := time.Now()
			err := s.write(in.writes[r], uint64(in.w.historyRecords+r), writeRequestBase+int64(r))
			res.writeLat = append(res.writeLat, time.Since(t0))
			res.check.note(err)
			b = s.binding()
		}
		t0 := time.Now()
		rep, err := s.solve(raw, int64(i))
		res.solveLat[i] = time.Since(t0)
		if err != nil {
			res.check.note(fmt.Errorf("request %d: %w", i, err))
			continue
		}
		res.solves[i] = rep.Best
		res.samples += rep.SamplesDrawn
		res.pruned += rep.Pruned
		res.willSum += rep.Best.Willingness
		res.check.answer(b, in.ks[i], rep.Best)
	}
	res.wall = time.Since(start)
	res.check.merge(bulkDone())
	return res
}

// driveBulk starts the open-loop bulk stream: each scheduled batch is sent
// at its due time on a goroutine of its own, whether or not earlier ones
// have answered, and timed from when it was due. The returned function
// waits for every batch and returns their checks.
func driveBulk(s stack, in *inputs, b *objective.Binding, start time.Time, res *runResult) func() *checker {
	var chk checker
	if len(in.bulk) == 0 {
		return func() *checker { return &chk }
	}
	items := in.w.batchItems
	res.batchLat = make([]time.Duration, len(in.bulk))
	res.late = make([]time.Duration, len(in.bulk))
	res.batchSols = make([]core.Solution, len(in.bulk)*items)
	var (
		mu       sync.Mutex
		batches  sync.WaitGroup
		dispatch sync.WaitGroup
	)
	dispatch.Add(1)
	go func() {
		defer dispatch.Done()
		for j := range in.bulk {
			a := &in.bulk[j]
			due := start.Add(a.at)
			time.Sleep(time.Until(due))
			res.late[j] = time.Since(due)
			batches.Add(1)
			go func() {
				defer batches.Done()
				out, err := s.batch(a.items, batchRequestBase+int64(j))
				res.batchLat[j] = time.Since(due)
				var c checker
				if err != nil {
					c.note(fmt.Errorf("batch %d: %w", j, err))
				}
				for it, br := range out {
					if br.Report == nil {
						c.note(fmt.Errorf("batch %d item %d: %v", j, it, br.Err))
						continue
					}
					res.batchSols[j*items+it] = br.Report.Best
					c.answer(b, a.items[it].Request.K, br.Report.Best)
				}
				mu.Lock()
				chk.merge(&c)
				mu.Unlock()
			}()
		}
	}()
	return func() *checker {
		dispatch.Wait()
		batches.Wait()
		return &chk
	}
}

// serviceConfig is wasod's flag defaults: 30 s default deadline, node and
// edge caps, default region cache, admission with a 4096-task queue cap.
func serviceConfig(st *store.Store) service.Config {
	return service.Config{
		DefaultTimeout: 30 * time.Second,
		MaxNodes:       10_000_000,
		MaxEdges:       50_000_000,
		Admit: admit.Config{
			MaxQueue:       4096,
			Window:         10 * time.Second,
			DegradeSamples: 200,
			DegradeStarts:  1,
			RetryAfter:     time.Second,
		},
		Store: st,
	}
}

// server is one booted service, optionally over a durable store.
type server struct {
	svc *service.Service
	st  *store.Store
}

func (s *server) close() {
	s.svc.Close()
	if s.st != nil {
		s.st.Close()
	}
}

// bootService brings the service from generated bytes to servable: decode
// and load the uploaded graph, or open the durable image and recover it,
// then run the warm-up requests.
func bootService(in *inputs, image *memFS, chk *checker) (*server, error) {
	srv := &server{}
	if in.w.durable {
		st, err := store.Open(dataDir, store.Options{FS: image, Fsync: store.FsyncAlways})
		if err != nil {
			return nil, err
		}
		srv.st = st
		srv.svc = service.New(serviceConfig(st))
		infos, err := srv.svc.Recover()
		if err != nil {
			srv.close()
			return nil, err
		}
		if len(infos) != 1 || infos[0].Version != uint64(in.w.historyRecords) {
			srv.close()
			return nil, fmt.Errorf("recovered %+v, want one graph at version %d", infos, in.w.historyRecords)
		}
	} else {
		srv.svc = service.New(serviceConfig(nil))
		g, err := graph.Decode(bytes.NewReader(in.graphBytes))
		if err == nil {
			_, err = srv.svc.Load(graphID, g, "upload")
		}
		if err != nil {
			srv.close()
			return nil, err
		}
	}
	b := srv.binding()
	for i, raw := range in.warmup {
		rep, err := srv.solve(raw, setupRequestID)
		if err != nil {
			chk.note(fmt.Errorf("warm-up %d: %w", i, err))
			continue
		}
		chk.answer(b, in.w.ks[i], rep.Best)
	}
	return srv, nil
}

func (s *server) solve(raw []byte, _ int64) (core.Report, error) {
	req, err := core.DecodeRequest(raw)
	if err != nil {
		return core.Report{}, fmt.Errorf("decode request: %w", err)
	}
	rep, err := s.svc.Solve(context.Background(), graphID, algo, req)
	if err != nil {
		return rep, err
	}
	_, err = json.Marshal(rep)
	return rep, err
}

func (s *server) batch(items []core.BatchItem, _ int64) ([]core.BatchReport, error) {
	return s.svc.SolveBatch(context.Background(), graphID, items)
}

func (s *server) write(muts []graph.Mutation, version uint64, _ int64) error {
	_, err := s.svc.Mutate(context.Background(), graphID, muts, int64(version))
	return err
}

func (s *server) binding() *objective.Binding {
	g, _, err := s.svc.Get(graphID)
	if err != nil {
		panic(err) // the benchmark never evicts its graph
	}
	return objective.Bind(willingness(), g)
}

// willingness is the default objective every request solves for.
func willingness() objective.Objective {
	obj, err := objective.New(objective.Default)
	if err != nil {
		panic(err)
	}
	return obj
}

// serviceRun is the end-to-end pass: repeated set-ups, the live heap of
// the kept one, its run, and the service's own counters across the run.
type serviceRun struct {
	setups   []time.Duration
	heapLive float64 // MiB
	run      runResult
	setupChk checker
	admit    admit.Stats        // Admission() delta over the run
	reg      map[string]float64 // metrics registry delta over the run
	regEnd   map[string]float64 // metrics registry at the end
}

// runService sets the service up `setups` times, keeps the last one,
// measures its live heap and drives the run through it. Every set-up
// starts from a collected heap, so none pays for its predecessor's garbage.
func runService(in *inputs, setups int) (*serviceRun, error) {
	out := &serviceRun{setups: make([]time.Duration, setups)}
	var srv *server
	var base uint64
	for r := range setups {
		var image *memFS
		if in.w.durable {
			image = in.image.clone()
		}
		base = liveHeap()
		t0 := time.Now()
		s, err := bootService(in, image, &out.setupChk)
		out.setups[r] = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", r, err)
		}
		if r < setups-1 {
			s.close()
			continue
		}
		srv = s
	}
	defer srv.close()
	out.heapLive = float64(liveHeap()-base) / (1 << 20)

	adm0, reg0 := srv.svc.Admission(), srv.svc.Metrics().Snapshot()
	out.run = drive(srv, in)
	adm1 := srv.svc.Admission()
	out.regEnd = srv.svc.Metrics().Snapshot()
	out.reg = make(map[string]float64, len(out.regEnd))
	for k, v := range out.regEnd {
		out.reg[k] = v - reg0[k]
	}
	out.admit = admit.Stats{
		Accepted:  adm1.Accepted - adm0.Accepted,
		Degraded:  adm1.Degraded - adm0.Degraded,
		ShedTotal: adm1.ShedTotal - adm0.ShedTotal,
	}
	return out, nil
}

// liveHeap returns the bytes of live heap after full collections. Two
// cycles, so that workspaces parked in a sync.Pool (which survive one
// collection in its victim cache) are not counted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
