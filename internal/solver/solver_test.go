package solver

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"waso/internal/core"
	"waso/internal/gen"
	"waso/internal/graph"
	"waso/internal/objective"
	"waso/internal/stats"
)

func powerlawInstance(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.PreferentialAttachment(n, 4, seed)
	if err != nil {
		t.Fatalf("PreferentialAttachment: %v", err)
	}
	return g
}

// req builds a default request for k with the given overrides applied.
func req(k int, mut func(*core.Request)) core.Request {
	r := core.DefaultRequest(k)
	if mut != nil {
		mut(&r)
	}
	return r
}

func checkSolution(t *testing.T, g *graph.Graph, k int, rep core.Report) {
	t.Helper()
	sol := rep.Best
	if sol.Size() == 0 || sol.Size() > k {
		t.Fatalf("%s: solution size %d outside (0,%d]", rep.Algo, sol.Size(), k)
	}
	if !g.Connected(sol.Nodes) {
		t.Fatalf("%s: solution %v not connected", rep.Algo, sol.Nodes)
	}
	if w := testBind(g).Value(sol.Nodes); math.Abs(w-sol.Willingness) > 1e-6*math.Max(1, w) {
		t.Fatalf("%s: stored willingness %v != recomputed %v", rep.Algo, sol.Willingness, w)
	}
}

// TestSolverInvariants: every solver returns a non-empty connected group of
// size ≤ k with a correct incremental willingness.
func TestSolverInvariants(t *testing.T) {
	ctx := context.Background()
	g := powerlawInstance(t, 500, 7)
	for _, s := range All() {
		for _, k := range []int{1, 2, 10, 25} {
			rep, err := s.Solve(ctx, g, req(k, func(r *core.Request) { r.Samples = 30; r.Seed = 42 }))
			if err != nil {
				t.Fatalf("%s k=%d: %v", s.Name(), k, err)
			}
			checkSolution(t, g, k, rep)
		}
	}
}

// TestWorkerIndependence: a fixed seed yields the identical best group (and
// sample count) no matter how many workers run the tasks. Pruned is
// deliberately not compared — it is advisory, a function of how fast the
// shared incumbent rises under a given schedule. The exhaustive version of
// this check is TestWorkerCountInvariance.
func TestWorkerIndependence(t *testing.T) {
	ctx := context.Background()
	g := powerlawInstance(t, 500, 11)
	for _, s := range All() {
		var ref core.Report
		for i, workers := range []int{1, 2, 8} {
			w := workers
			rep, err := s.Solve(ctx, g, req(10, func(r *core.Request) { r.Samples = 40; r.Seed = 9; r.Workers = w }))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", s.Name(), workers, err)
			}
			if i == 0 {
				ref = rep
				continue
			}
			if !rep.Best.Equal(ref.Best) || rep.Best.Willingness != ref.Best.Willingness {
				t.Errorf("%s: workers=%d got %v, workers=1 got %v", s.Name(), workers, rep.Best, ref.Best)
			}
			if rep.SamplesDrawn != ref.SamplesDrawn {
				t.Errorf("%s: workers=%d drew %d samples, workers=1 drew %d",
					s.Name(), workers, rep.SamplesDrawn, ref.SamplesDrawn)
			}
		}
	}
}

// TestSeedSensitivity: randomized solvers actually use the seed.
func TestSeedSensitivity(t *testing.T) {
	ctx := context.Background()
	g := powerlawInstance(t, 300, 3)
	a, err := RGreedy{}.Solve(ctx, g, req(8, func(r *core.Request) { r.Samples = 5; r.Seed = 1; r.Starts = 2 }))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(2); seed < 10; seed++ {
		sd := seed
		b, err := RGreedy{}.Solve(ctx, g, req(8, func(r *core.Request) { r.Samples = 5; r.Seed = sd; r.Starts = 2 }))
		if err != nil {
			t.Fatal(err)
		}
		if !a.Best.Equal(b.Best) {
			return // found a seed that changes the outcome
		}
	}
	t.Error("rgreedy returned the identical group for 9 different seeds")
}

// TestCBASNDBeatsDGreedy is the paper-quality acceptance bar, held per
// registered objective: on 1k-node power-law instances the mean CBASND
// objective value across 20 seeds must be at least DGreedy's. (Per-start
// greedy warm starts make this hold per-instance, not just in the mean —
// for every fused-additive objective, since both solvers grow with the
// same Delta oracle.)
func TestCBASNDBeatsDGreedy(t *testing.T) {
	ctx := context.Background()
	for _, objName := range objective.Names() {
		t.Run(objName, func(t *testing.T) {
			var dg, nd []float64
			for seed := uint64(0); seed < 20; seed++ {
				g := powerlawInstance(t, 1000, 100+seed)
				r := req(10, func(r *core.Request) { r.Samples = 50; r.Seed = seed; r.Objective = objName })
				rd, err := DGreedy{}.Solve(ctx, g, r)
				if err != nil {
					t.Fatal(err)
				}
				rn, err := CBASND{}.Solve(ctx, g, r)
				if err != nil {
					t.Fatal(err)
				}
				if rn.Best.Willingness < rd.Best.Willingness {
					t.Errorf("seed %d: cbasnd %.4f < dgreedy %.4f", seed, rn.Best.Willingness, rd.Best.Willingness)
				}
				dg = append(dg, rd.Best.Willingness)
				nd = append(nd, rn.Best.Willingness)
			}
			if stats.Mean(nd) < stats.Mean(dg) {
				t.Errorf("mean cbasnd %.4f < mean dgreedy %.4f over 20 seeds", stats.Mean(nd), stats.Mean(dg))
			}
		})
	}
}

// richCliqueGraph builds a K5 of high-interest nodes with a low-value tail
// hanging off it: uniform samples that wander into the tail become
// hopeless early, so the pruning bound must fire.
func richCliqueGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(9)
	for i := 0; i < 5; i++ {
		b.SetInterest(graph.NodeID(i), 10)
	}
	for i := 5; i < 9; i++ {
		b.SetInterest(graph.NodeID(i), 0.01)
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdgeSym(graph.NodeID(i), graph.NodeID(j), 1)
		}
	}
	for i := 4; i < 8; i++ { // tail 4—5—6—7—8
		b.AddEdgeSym(graph.NodeID(i), graph.NodeID(i+1), 0.01)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomGraph builds a graph on n nodes: η from eta per node, then each
// pair u < v is an edge with probability p and symmetric τ from tau.
func randomGraph(t *testing.T, rnd *rand.Rand, n int, p float64, eta, tau func() float64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.SetInterest(graph.NodeID(i), eta())
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rnd.Float64() < p {
				b.AddEdgeSym(graph.NodeID(u), graph.NodeID(v), tau())
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// signedGraph builds a random graph with n in [12, 31], edge probability
// 0.35, η uniform in [0, 2) and symmetric τ uniform in [-2.5, 1.5), so
// that many fused edge weights are negative.
func signedGraph(t *testing.T, rnd *rand.Rand) *graph.Graph {
	return randomGraph(t, rnd, 12+rnd.Intn(20), 0.35,
		func() float64 { return 2 * rnd.Float64() },
		func() float64 { return -2.5 + 4*rnd.Float64() })
}

// integralGraph builds a random graph with n in [6, 15], edge probability
// 0.4, η uniform in {0, 1, 2} and symmetric τ = 1 with probability 0.1,
// else 0. Most bound scores are then a bare η, so different groups tie on
// W exactly and the §3.1 bound often equals a completion's W.
func integralGraph(t *testing.T, rnd *rand.Rand) *graph.Graph {
	return randomGraph(t, rnd, 6+rnd.Intn(10), 0.4,
		func() float64 { return float64(rnd.Intn(3)) },
		func() float64 {
			if rnd.Float64() < 0.1 {
				return 1
			}
			return 0
		})
}

// TestPruningInvariance: pruning only skips samples that provably cannot
// beat the incumbent, so it must not change the answer — only the
// counters. That holds on graphs with negative τ too, whose negative edge
// gains the bound must not count, and through exact ties, where a growth
// whose bound equals the incumbent may still win Better's node-set
// tie-break (the strict < against the shared incumbent in hopeless).
func TestPruningInvariance(t *testing.T) {
	ctx := context.Background()
	g := richCliqueGraph(t)
	for _, s := range []Solver{CBAS{}, CBASND{}} {
		on, err := s.Solve(ctx, g, req(5, func(r *core.Request) { r.Samples = 200; r.Seed = 4; r.Starts = 3 }))
		if err != nil {
			t.Fatal(err)
		}
		off, err := s.Solve(ctx, g, req(5, func(r *core.Request) {
			r.Samples = 200
			r.Seed = 4
			r.Starts = 3
			r.Prune = false
		}))
		if err != nil {
			t.Fatal(err)
		}
		if !on.Best.Equal(off.Best) {
			t.Errorf("%s: pruning changed the result: %v vs %v", s.Name(), on.Best, off.Best)
		}
		if off.Pruned != 0 {
			t.Errorf("%s: Prune=false still pruned %d samples", s.Name(), off.Pruned)
		}
		if s.Name() == "cbas" && on.Pruned == 0 {
			t.Errorf("cbas: expected the bound to prune some uniform samples on the rich-clique instance")
		}
	}

	invariant := func(family string, i int, g *graph.Graph, r core.Request) {
		for _, s := range []Solver{CBAS{}, CBASND{}} {
			r.Prune = true
			on, err := s.Solve(ctx, g, r)
			if err != nil {
				t.Fatal(err)
			}
			r.Prune = false
			off, err := s.Solve(ctx, g, r)
			if err != nil {
				t.Fatal(err)
			}
			if !on.Best.Equal(off.Best) || on.Best.Willingness != off.Best.Willingness {
				t.Errorf("%s, %s graph %d (n=%d, k=%d): pruning changed the result: %v vs %v",
					s.Name(), family, i, g.N(), r.K, on.Best, off.Best)
			}
		}
	}
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		invariant("signed", i, signedGraph(t, rnd),
			req(5, func(r *core.Request) { r.Starts = 4; r.Samples = 30; r.Seed = uint64(i); r.Workers = 1 }))
	}
	for i := 0; i < 1500; i++ {
		g := integralGraph(t, rnd)
		k := 2 + rnd.Intn(3)
		invariant("integral", i, g,
			req(k, func(r *core.Request) { r.Starts = 4; r.Samples = 8; r.Seed = uint64(i); r.Workers = 1 }))
	}
}

// TestOptimalOnClique: with k ≥ clique size the optimum is the whole rich
// clique; every solver should find it.
func TestOptimalOnClique(t *testing.T) {
	ctx := context.Background()
	g := richCliqueGraph(t)
	want := testBind(g).Value([]graph.NodeID{0, 1, 2, 3, 4})
	for _, s := range All() {
		rep, err := s.Solve(ctx, g, req(5, func(r *core.Request) { r.Samples = 50; r.Seed = 1 }))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rep.Best.Willingness-want) > 1e-9 {
			t.Errorf("%s: found %v, want the K5 with W=%v", s.Name(), rep.Best, want)
		}
	}
}

// TestSmallComponent: when k exceeds the start's component, the group is
// the whole component rather than an error.
func TestSmallComponent(t *testing.T) {
	ctx := context.Background()
	b := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		b.SetInterest(graph.NodeID(i), float64(i+1))
	}
	b.AddEdgeSym(2, 3, 1) // component {2,3}; 0 and 1 isolated
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		rep, err := s.Solve(ctx, g, req(10, func(r *core.Request) { r.Samples = 10; r.Seed = 2 }))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		want := []graph.NodeID{2, 3}
		if rep.Best.Size() != 2 || rep.Best.Nodes[0] != want[0] || rep.Best.Nodes[1] != want[1] {
			t.Errorf("%s: got %v, want component {2,3}", s.Name(), rep.Best)
		}
	}
}

// TestSamplerBackendsAgree: forcing the Fenwick backend must reproduce the
// linear backend's guarantees (the two backends consume uniforms
// differently, so exact equality is not required), and both must stay
// within the greedy-seeded bound.
func TestSamplerBackendsAgree(t *testing.T) {
	ctx := context.Background()
	g := powerlawInstance(t, 400, 21)
	greedy, err := DGreedy{}.Solve(ctx, g, req(12, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.Sampler{core.SamplerLinear, core.SamplerFenwick} {
		sk := kind
		rep, err := CBASND{}.Solve(ctx, g, req(12, func(r *core.Request) { r.Samples = 40; r.Seed = 5; r.Sampler = sk }))
		if err != nil {
			t.Fatal(err)
		}
		checkSolution(t, g, 12, rep)
		if rep.Best.Willingness < greedy.Best.Willingness {
			t.Errorf("sampler %s: cbasnd %.4f below dgreedy %.4f", kind, rep.Best.Willingness, greedy.Best.Willingness)
		}
	}
}

// TestZeroSamples: a zero sample budget is a real value now — greedy-seeded
// solvers return the deterministic completion, and the purely sampling
// rgreedy reports an explicit error rather than silently defaulting.
func TestZeroSamples(t *testing.T) {
	ctx := context.Background()
	g := powerlawInstance(t, 300, 5)
	zero := req(10, func(r *core.Request) { r.Samples = 0 })
	want, err := DGreedy{}.Solve(ctx, g, zero)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Solver{CBAS{}, CBASND{}} {
		rep, err := s.Solve(ctx, g, zero)
		if err != nil {
			t.Fatalf("%s with zero samples: %v", s.Name(), err)
		}
		if rep.SamplesDrawn != 0 {
			t.Errorf("%s: drew %d samples on a zero budget", s.Name(), rep.SamplesDrawn)
		}
		if !rep.Best.Equal(want.Best) {
			t.Errorf("%s with zero samples: %v, want the greedy completion %v", s.Name(), rep.Best, want.Best)
		}
	}
	if _, err := (RGreedy{}).Solve(ctx, g, zero); err == nil {
		t.Error("rgreedy with zero samples should error, not return an empty group")
	}
}

func TestErrorsAndRegistry(t *testing.T) {
	ctx := context.Background()
	g := powerlawInstance(t, 50, 1)
	if _, err := (CBAS{}).Solve(ctx, g, req(0, nil)); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := (CBAS{}).Solve(ctx, nil, req(5, nil)); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := (CBAS{}).Solve(ctx, g, req(5, func(r *core.Request) { r.Sampler = "bogus" })); err == nil {
		t.Error("unknown sampler accepted")
	}
	for _, name := range Names() {
		s, err := New(name)
		if err != nil || s.Name() != name {
			t.Errorf("New(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := New("simulated-annealing"); err == nil {
		t.Error("unknown solver name accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate Register did not panic")
			}
		}()
		Register("dgreedy", func() Solver { return DGreedy{} })
	}()
}

// TestCancelledContext: a Solve with an already-cancelled context returns
// ctx.Err() promptly and leaks no goroutines, and a Solve cancelled while
// it runs on the default executor drains its job from the queue.
func TestCancelledContext(t *testing.T) {
	g := powerlawInstance(t, 500, 13)
	// The default executor's fixed pool lives for the process; start it
	// before the baseline so it is not counted as a leak.
	ex := defaultExecutor()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range All() {
		began := time.Now()
		rep, err := s.Solve(ctx, g, req(10, func(r *core.Request) { r.Samples = 1 << 20 }))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", s.Name(), err)
		}
		if rep.Best.Size() != 0 {
			t.Errorf("%s: cancelled solve still returned a group %v", s.Name(), rep.Best)
		}
		if d := time.Since(began); d > time.Second {
			t.Errorf("%s: cancelled solve took %v, want prompt return", s.Name(), d)
		}
	}

	running, cancelRunning := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := (CBASND{}).Solve(running, g, req(10, func(r *core.Request) { r.Samples = 1 << 20; r.Prune = false }))
		errCh <- err
	}()
	for ex.Stats().TasksInFlight == 0 && len(errCh) == 0 {
		time.Sleep(time.Millisecond)
	}
	cancelRunning()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Errorf("solve cancelled mid-run: err = %v, want context.Canceled", err)
	}
	if st := ex.Stats(); st.JobsActive != 0 || st.TasksQueued != 0 {
		t.Errorf("cancelled job left the default executor backlogged: %+v", st)
	}

	// Goroutine bracketing: allow the runtime a moment to settle.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestDeadlineExceeded: a short deadline on a large instance interrupts the
// sample loop and surfaces context.DeadlineExceeded instead of running the
// full budget.
func TestDeadlineExceeded(t *testing.T) {
	g := powerlawInstance(t, 2000, 17)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	began := time.Now()
	_, err := (CBASND{}).Solve(ctx, g, req(20, func(r *core.Request) { r.Samples = 1 << 20; r.Prune = false }))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(began); d > 5*time.Second {
		t.Errorf("deadline solve took %v, want prompt abort", d)
	}
}

// TestWithPrep: attaching a precomputed ranking must not change any result
// — it only removes the per-call ranking pass.
func TestWithPrep(t *testing.T) {
	g := powerlawInstance(t, 500, 19)
	prep := testPrep(g)
	ctx := WithPrep(context.Background(), prep)
	for _, s := range All() {
		r := req(10, func(r *core.Request) { r.Samples = 20; r.Seed = 3 })
		plain, err := s.Solve(context.Background(), g, r)
		if err != nil {
			t.Fatal(err)
		}
		prepped, err := s.Solve(ctx, g, r)
		if err != nil {
			t.Fatal(err)
		}
		if !plain.Best.Equal(prepped.Best) || plain.SamplesDrawn != prepped.SamplesDrawn || plain.Pruned != prepped.Pruned {
			t.Errorf("%s: WithPrep changed the outcome: %v vs %v", s.Name(), prepped.Best, plain.Best)
		}
	}
	// A Prep for a different graph must be ignored, not misapplied.
	other := powerlawInstance(t, 200, 23)
	rep, err := (DGreedy{}).Solve(ctx, other, req(5, nil))
	if err != nil {
		t.Fatal(err)
	}
	want, err := (DGreedy{}).Solve(context.Background(), other, req(5, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Best.Equal(want.Best) {
		t.Errorf("stale Prep affected a different graph: %v vs %v", rep.Best, want.Best)
	}
}

func TestPickStarts(t *testing.T) {
	g := richCliqueGraph(t)
	prep := testPrep(g)
	starts := prep.Starts(3)
	if len(starts) != 3 {
		t.Fatalf("got %d starts, want 3", len(starts))
	}
	// Node 4 has the clique score plus the tail edge — the top start.
	if starts[0] != 4 {
		t.Errorf("top start = %d, want 4 (highest NodeScore)", starts[0])
	}
	for _, v := range starts {
		if v > 4 {
			t.Errorf("tail node %d ranked above clique nodes", v)
		}
	}
	if n := len(prep.Starts(100)); n != g.N() {
		t.Errorf("Starts capped at %d, want N=%d", n, g.N())
	}
}
