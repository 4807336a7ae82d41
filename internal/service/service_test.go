package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"waso/internal/core"
	"waso/internal/gen"
	"waso/internal/graph"
	"waso/internal/solver"
)

func testSpec(n int) gen.Spec {
	return gen.Spec{Kind: "powerlaw", N: n, AvgDeg: 8, Seed: 1}
}

// newTestService constructs a Service and releases its executor workers at
// test cleanup — New spawns goroutines, so every test must pair it with
// Close, exactly as library consumers should.
func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func TestStoreLifecycle(t *testing.T) {
	s := newTestService(t, Config{})
	info, err := s.Generate("g1", testSpec(200))
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "g1" || info.Nodes != 200 || info.Edges == 0 {
		t.Errorf("info = %+v", info)
	}
	if _, err := s.Generate("g1", testSpec(100)); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate id: err = %v, want ErrExists", err)
	}
	if _, err := s.Generate("g2", gen.Spec{Kind: "mystery", N: 10}); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad spec: err = %v, want ErrInvalid", err)
	}
	if _, err := s.Load("", nil, "upload"); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty id: err = %v, want ErrInvalid", err)
	}

	g, info2, err := s.Get("g1")
	if err != nil || g.N() != 200 || info2.ID != "g1" {
		t.Fatalf("Get(g1) = %v, %+v, %v", g, info2, err)
	}
	if _, _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(nope): err = %v, want ErrNotFound", err)
	}

	if _, err := s.Generate("a0", testSpec(50)); err != nil {
		t.Fatal(err)
	}
	list := s.List()
	if len(list) != 2 || list[0].ID != "a0" || list[1].ID != "g1" {
		t.Errorf("List() = %+v, want [a0 g1]", list)
	}

	if err := s.Evict("g1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Evict("g1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double evict: err = %v, want ErrNotFound", err)
	}
	if _, _, err := s.Get("g1"); !errors.Is(err, ErrNotFound) {
		t.Error("evicted graph still resident")
	}
}

func TestMaxGraphs(t *testing.T) {
	s := newTestService(t, Config{MaxGraphs: 1})
	if _, err := s.Generate("g1", testSpec(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate("g2", testSpec(50)); !errors.Is(err, ErrInvalid) {
		t.Errorf("over cap: err = %v, want ErrInvalid", err)
	}
	if err := s.Evict("g1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate("g2", testSpec(50)); err != nil {
		t.Errorf("after evict: %v", err)
	}
}

// TestMaxNodes: the node cap rejects oversized generate specs before the
// build runs, and oversized uploads at Load.
func TestMaxNodes(t *testing.T) {
	s := newTestService(t, Config{MaxNodes: 100})
	if _, err := s.Generate("big", testSpec(101)); !errors.Is(err, ErrInvalid) {
		t.Errorf("over-cap generate: err = %v, want ErrInvalid", err)
	}
	if _, err := s.Generate("ok", testSpec(100)); err != nil {
		t.Errorf("at-cap generate: %v", err)
	}
	g, _, err := s.Get("ok")
	if err != nil {
		t.Fatal(err)
	}
	small := newTestService(t, Config{MaxNodes: 50})
	if _, err := small.Load("up", g, "upload"); !errors.Is(err, ErrInvalid) {
		t.Errorf("over-cap load: err = %v, want ErrInvalid", err)
	}
	// Edge-list documents are rejected on their declared sizes before the
	// build allocates anything.
	if _, err := s.LoadEdgeList("doc", graph.EdgeListJSON{Nodes: 101}); !errors.Is(err, ErrInvalid) {
		t.Errorf("over-cap edge-list nodes: err = %v, want ErrInvalid", err)
	}
	dense := newTestService(t, Config{MaxEdges: 1})
	if _, err := dense.LoadEdgeList("doc", graph.EdgeListJSON{
		Nodes: 3,
		Edges: []graph.EdgeListEdge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}},
	}); !errors.Is(err, ErrInvalid) {
		t.Errorf("over-cap edge-list edges: err = %v, want ErrInvalid", err)
	}
	if _, err := dense.Generate("dense", gen.Spec{Kind: "er", N: 1000, AvgDeg: 1e9, Seed: 1}); !errors.Is(err, ErrInvalid) {
		t.Errorf("dense generate spec: err = %v, want ErrInvalid", err)
	}
}

// TestSolveMatchesDirect: the service path (shared Prep, recycled workspace
// pool, timeout wrapper) returns bit-identical solutions to calling the
// solver directly. Pruned is advisory (schedule-dependent under the shared
// incumbent) and deliberately not compared. Repeated service solves
// exercise workspace reuse: the second pass must reproduce the first.
func TestSolveMatchesDirect(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{})
	if _, err := s.Generate("g", testSpec(500)); err != nil {
		t.Fatal(err)
	}
	g, _, err := s.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	req := core.DefaultRequest(10)
	req.Samples = 40
	req.Seed = 7
	for _, algo := range solver.Names() {
		got, err := s.Solve(ctx, "g", algo, req)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		sv, err := solver.New(algo)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sv.Solve(ctx, g, req)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Best.Equal(want.Best) || got.Best.Willingness != want.Best.Willingness ||
			got.SamplesDrawn != want.SamplesDrawn {
			t.Errorf("%s: service %v != direct %v", algo, got.Best, want.Best)
		}
		again, err := s.Solve(ctx, "g", algo, req)
		if err != nil {
			t.Fatalf("%s pooled rerun: %v", algo, err)
		}
		if !again.Best.Equal(want.Best) || again.Best.Willingness != want.Best.Willingness {
			t.Errorf("%s: pooled rerun %v != direct %v", algo, again.Best, want.Best)
		}
	}
}

// TestSolveAfterClose: Close stops the service's executor, yet a solve
// issued afterwards still completes — on the solver's default executor —
// with a Best bit-identical to the same solve before Close.
func TestSolveAfterClose(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{})
	if _, err := s.Generate("g", testSpec(500)); err != nil {
		t.Fatal(err)
	}
	req := core.DefaultRequest(10)
	req.Samples = 40
	req.Seed = 5
	before := make(map[string]core.Solution)
	for _, algo := range solver.Names() {
		rep, err := s.Solve(ctx, "g", algo, req)
		if err != nil {
			t.Fatalf("%s before Close: %v", algo, err)
		}
		before[algo] = rep.Best
	}
	s.Close()
	for _, algo := range solver.Names() {
		rep, err := s.Solve(ctx, "g", algo, req)
		if err != nil {
			t.Fatalf("%s after Close: %v", algo, err)
		}
		if want := before[algo]; !rep.Best.Equal(want) || rep.Best.Willingness != want.Willingness {
			t.Errorf("%s: after Close %v != before %v", algo, rep.Best, want)
		}
	}
}

// TestPooledWorkspacesAcrossRequests: interleaving requests with different
// tuning (k, sampler backend, alpha) against one graph must not let a
// recycled workspace leak state between them — every request reproduces
// its direct-solver result.
func TestPooledWorkspacesAcrossRequests(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{})
	if _, err := s.Generate("g", testSpec(400)); err != nil {
		t.Fatal(err)
	}
	g, _, err := s.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]core.Request, 0, 6)
	for _, k := range []int{4, 12} {
		r := core.DefaultRequest(k)
		r.Samples = 20
		r.Seed = uint64(k)
		reqs = append(reqs, r)
		r.Sampler = core.SamplerFenwick
		r.Alpha = 1
		reqs = append(reqs, r)
		r.Sampler = core.SamplerLinear
		r.Alpha = 3
		reqs = append(reqs, r)
	}
	for round := 0; round < 3; round++ {
		for i, r := range reqs {
			got, err := s.Solve(ctx, "g", "cbasnd", r)
			if err != nil {
				t.Fatalf("round %d req %d: %v", round, i, err)
			}
			want, err := (solver.CBASND{}).Solve(ctx, g, r)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Best.Equal(want.Best) || got.Best.Willingness != want.Best.Willingness {
				t.Errorf("round %d req %d: pooled %v != direct %v", round, i, got.Best, want.Best)
			}
		}
	}
}

// TestRegionCachedSolves: requests whose region mode engages the per-graph
// cache reproduce direct-solver results across repeated, retuned solves,
// and disabling the cache (MaxRegions < 0) changes nothing but the
// amortization.
func TestRegionCachedSolves(t *testing.T) {
	ctx := context.Background()
	spec := gen.Spec{Kind: "er", N: 500, AvgDeg: 2, Seed: 3} // sparse: auto mode extracts real regions
	for _, cfg := range []Config{{}, {MaxRegions: 2}, {MaxRegions: -1}} {
		s := newTestService(t, cfg)
		if _, err := s.Generate("g", spec); err != nil {
			t.Fatal(err)
		}
		g, _, err := s.Get("g")
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			for _, k := range []int{3, 5} {
				r := core.DefaultRequest(k)
				r.Samples = 15
				r.Seed = uint64(k)
				if round == 1 {
					// The serving path downgrades the uncapped verification
					// mode to auto; results are identical in every mode, so
					// this only exercises the policy path.
					r.Region = core.RegionAlways
				}
				got, err := s.Solve(ctx, "g", "cbasnd", r)
				if err != nil {
					t.Fatalf("MaxRegions=%d round %d k=%d: %v", cfg.MaxRegions, round, k, err)
				}
				want, err := (solver.CBASND{}).Solve(ctx, g, r)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Best.Equal(want.Best) || got.Best.Willingness != want.Best.Willingness {
					t.Errorf("MaxRegions=%d round %d k=%d: service %v != direct %v",
						cfg.MaxRegions, round, k, got.Best, want.Best)
				}
			}
		}
	}
}

func TestSolveErrors(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{})
	if _, err := s.Generate("g", testSpec(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(ctx, "missing", "dgreedy", core.DefaultRequest(5)); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown graph: err = %v, want ErrNotFound", err)
	}
	if _, err := s.Solve(ctx, "g", "oracle", core.DefaultRequest(5)); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown algo: err = %v, want ErrInvalid", err)
	}
	if _, err := s.Solve(ctx, "g", "dgreedy", core.DefaultRequest(0)); !errors.Is(err, ErrInvalid) {
		t.Errorf("invalid request: err = %v, want ErrInvalid", err)
	}
	// A validated request the solver cannot answer (rgreedy with a zero
	// sample budget) stays in the invalid-argument family so transports
	// report a client error, not a server fault.
	zero := core.DefaultRequest(5)
	zero.Samples = 0
	if _, err := s.Solve(ctx, "g", "rgreedy", zero); !errors.Is(err, ErrInvalid) {
		t.Errorf("rgreedy zero samples: err = %v, want ErrInvalid", err)
	}
}

// TestSolveDefaultTimeout: a service-level default timeout bounds requests
// that carry no deadline of their own.
func TestSolveDefaultTimeout(t *testing.T) {
	s := newTestService(t, Config{DefaultTimeout: time.Millisecond})
	if _, err := s.Generate("g", testSpec(2000)); err != nil {
		t.Fatal(err)
	}
	req := core.DefaultRequest(20)
	req.Samples = 1 << 20
	req.Prune = false
	if _, err := s.Solve(context.Background(), "g", "cbasnd", req); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	// An explicit caller deadline wins over the default.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req.Samples = 10
	if _, err := s.Solve(ctx, "g", "cbasnd", req); err != nil {
		t.Errorf("caller deadline run failed: %v", err)
	}
}

// TestSolveBatch: every batch item's Report.Best is bit-identical to a
// sequential direct solve of the same (algo, request) — batch scheduling
// and the shared executor never affect answers — and results are
// positional.
func TestSolveBatch(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{})
	if _, err := s.Generate("g", testSpec(500)); err != nil {
		t.Fatal(err)
	}
	g, _, err := s.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	var items []core.BatchItem
	for _, algo := range solver.Names() {
		for _, k := range []int{4, 10} {
			r := core.DefaultRequest(k)
			r.Samples = 25
			r.Seed = uint64(7 * k)
			items = append(items, core.BatchItem{Algo: algo, Request: r})
		}
	}
	out, err := s.SolveBatch(ctx, "g", items)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(items) {
		t.Fatalf("got %d reports for %d items", len(out), len(items))
	}
	for i, br := range out {
		if br.Err != nil || br.Report == nil {
			t.Fatalf("item %d (%s): err = %v", i, items[i].Algo, br.Err)
		}
		if br.Algo != items[i].Algo {
			t.Errorf("item %d: algo %q, want %q", i, br.Algo, items[i].Algo)
		}
		sv, err := solver.New(items[i].Algo)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sv.Solve(ctx, g, items[i].Request)
		if err != nil {
			t.Fatal(err)
		}
		if !br.Report.Best.Equal(want.Best) || br.Report.Best.Willingness != want.Best.Willingness ||
			br.Report.SamplesDrawn != want.SamplesDrawn {
			t.Errorf("item %d (%s): batch %v != direct %v", i, items[i].Algo, br.Report.Best, want.Best)
		}
	}
}

// TestSolveBatchItemErrors: bad items fail independently with their typed
// error preserved; good items in the same batch still solve.
func TestSolveBatchItemErrors(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{})
	if _, err := s.Generate("g", testSpec(100)); err != nil {
		t.Fatal(err)
	}
	good := core.DefaultRequest(5)
	good.Samples = 5
	items := []core.BatchItem{
		{Algo: "dgreedy", Request: good},
		{Algo: "oracle", Request: good},
		{Algo: "cbas", Request: core.DefaultRequest(0)}, // invalid k
		{Algo: "cbas", Request: good},
	}
	out, err := s.SolveBatch(ctx, "g", items)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil || out[0].Report == nil {
		t.Errorf("item 0: %v", out[0].Err)
	}
	if !errors.Is(out[1].Err, ErrInvalid) || out[1].Error == "" || out[1].Report != nil {
		t.Errorf("unknown algo item: %+v", out[1])
	}
	if !errors.Is(out[2].Err, ErrInvalid) || out[2].Report != nil {
		t.Errorf("invalid request item: %+v", out[2])
	}
	if out[3].Err != nil || out[3].Report == nil {
		t.Errorf("item 3: %v", out[3].Err)
	}

	if _, err := s.SolveBatch(ctx, "g", nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty batch: err = %v, want ErrInvalid", err)
	}
	if _, err := s.SolveBatch(ctx, "missing", items); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown graph: err = %v, want ErrNotFound", err)
	}
}

// TestSolveBatchTimeout: the default timeout bounds the batch as a whole —
// oversized items surface per-item deadline errors, not a hung call.
func TestSolveBatchTimeout(t *testing.T) {
	s := newTestService(t, Config{DefaultTimeout: time.Millisecond})
	if _, err := s.Generate("g", testSpec(2000)); err != nil {
		t.Fatal(err)
	}
	big := core.DefaultRequest(20)
	big.Samples = 1 << 20
	big.Prune = false
	out, err := s.SolveBatch(context.Background(), "g", []core.BatchItem{
		{Algo: "cbasnd", Request: big},
		{Algo: "cbasnd", Request: big},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, br := range out {
		if !errors.Is(br.Err, context.DeadlineExceeded) {
			t.Errorf("item %d: err = %v, want context.DeadlineExceeded", i, br.Err)
		}
	}
}

// TestConcurrentSolves exercises the RWMutex store and the shared Prep
// under -race: many goroutines solving against the same graph while others
// load and evict unrelated graphs.
func TestConcurrentSolves(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{})
	if _, err := s.Generate("shared", testSpec(300)); err != nil {
		t.Fatal(err)
	}
	req := core.DefaultRequest(8)
	req.Samples = 20
	want, err := s.Solve(ctx, "shared", "cbas", req)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.Solve(ctx, "shared", "cbas", req)
			if err != nil {
				errCh <- err
				return
			}
			if !got.Best.Equal(want.Best) {
				errCh <- errors.New("concurrent solve diverged from reference")
			}
		}()
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := string(rune('a' + i))
			if _, err := s.Generate(id, testSpec(50)); err != nil {
				errCh <- err
				return
			}
			if err := s.Evict(id); err != nil {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
