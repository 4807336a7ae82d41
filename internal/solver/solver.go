// Package solver implements the WASO group-selection algorithms of
// "Willingness Optimization for Social Group Activity" (PVLDB 2013):
//
//   - DGreedy — deterministic marginal-gain greedy (baseline, §5);
//   - RGreedy — randomized greedy that picks frontier nodes proportionally
//     to the willingness of the resulting group (baseline, §5);
//   - CBAS — uniform frontier sampling with the paper's pruning bound
//     (§3.1): phase 1 ranks start nodes by their bound score, phase 2 draws
//     random connected k-node groups and keeps the best;
//   - CBASND — CBAS with non-uniform adapted probabilities (§3.2): frontier
//     nodes are drawn proportionally to Δ(v|S)^α, steering samples toward
//     high-gain groups while retaining exploration.
//
// Solvers are looked up by name through a registry (Register/New/Names);
// the four built-ins self-register, and external packages can plug in
// additional algorithms without touching this package.
//
// What the search maximizes is pluggable: Request.Objective names an
// internal/objective implementation (default "willingness", the paper's
// Eq. 1), which supplies the fused per-node and per-entry gain arrays the
// growth loops consume; the objective's Binding derives the §3.1
// admissible bound behind the start ranking and the pruning table from
// those arrays. The request's Starts and Samples are the search budget
// for every objective. All driver invariants below hold per objective,
// and the willingness objective aliases the graph's own fused arrays, so
// solving it through the seam is bit-identical to the pre-seam solver.
//
// Every solver runs the same deterministic multi-start driver. The top
// Request.Starts nodes by bound score each get an independent search, and the
// sample budget is decomposed into (start, sample-chunk) tasks run on an
// Executor, so cores stay busy even when starts < workers or one start
// dominates the work. Every random draw derives from rng.Split sub-streams
// labelled (start index, sample index) — fixed at task-construction time —
// and per-task outcomes are reduced in task order, so Report.Best depends
// only on (graph, Request minus Workers), never on the worker count or
// goroutine scheduling.
//
// Pruning is cross-start: all workers share one lock-free global incumbent
// (float bits in an atomic.Uint64, raised by monotone CAS-max) holding the
// best willingness of any completed growth so far, and CBAS/CBASND abandon
// a growth once its §3.1 upper bound cannot beat it. Because the incumbent
// only ever holds the willingness of real candidate solutions, any growth
// abandoned against it could never have been the final best — Report.Best
// is unchanged by pruning and by worker count. Which samples get abandoned,
// however, depends on how fast the incumbent rises on a given schedule, so
// Report.Pruned is an advisory counter (see core.Report).
//
// There is one execution path. Every Solve runs its tasks on an Executor:
// the one its context carries (WithExecutor), else a package default of
// GOMAXPROCS workers started on first use, so solver goroutines stay
// bounded by the executors' sizes however many solves are in flight. Each
// task takes its scratch workspace from a WorkspacePool: the one attached
// via WithWorkspacePool, else one local to the solve.
//
// Solve is context-aware: cancellation and deadlines are observed between
// tasks and between samples, and a cancelled Solve returns ctx.Err()
// without leaking goroutines. Long-lived callers that solve many requests
// against the same (graph, objective) can precompute the ranking once with
// NewPrep and attach it via WithPrep — Solve picks it up from the context
// and skips the per-call ranking pass — and can recycle workspaces across
// calls with a per-graph WorkspacePool.
//
// CBAS and CBASND schedule the deterministic greedy completion of every
// start ahead of all sampling, so the shared incumbent starts at the best
// greedy solution across the whole start set. This tightens the pruning
// bound from the first sample and guarantees the randomized solvers never
// return a worse group than DGreedy under the same start set.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"waso/internal/core"
	"waso/internal/graph"
	"waso/internal/objective"
	"waso/internal/rng"
)

// ErrNoGroup reports a solve that completed without producing any
// candidate group — only reachable for purely sampling-based solvers given
// a zero sample budget. It is a request problem, not a solver fault;
// serving layers map it to their invalid-argument status.
var ErrNoGroup = errors.New("no group produced")

// FenwickCrossover is the estimated frontier size above which
// core.SamplerAuto switches CBASND from linear scans to a Fenwick tree. The
// default comes from BenchmarkSamplerCrossover (README, "Sampler
// crossover").
const FenwickCrossover = 256

// Solver finds a connected group F, |F| ≤ req.K, maximizing W(F) per Eq. 1.
// Implementations must honour ctx cancellation between units of work and
// derive all randomness from req.Seed so results are reproducible.
type Solver interface {
	Name() string
	Solve(ctx context.Context, g *graph.Graph, req core.Request) (core.Report, error)
}

// registry maps solver names to factories, preserving registration order
// for presentation (Names, All).
var registry = struct {
	sync.RWMutex
	order     []string
	factories map[string]func() Solver
}{factories: make(map[string]func() Solver)}

// Register makes a solver constructible by name through New. It panics on
// an empty name, nil factory, or duplicate registration — registration is
// an init-time programming contract, like database/sql drivers.
func Register(name string, factory func() Solver) {
	if name == "" || factory == nil {
		panic("solver: Register with empty name or nil factory")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[name]; dup {
		panic("solver: Register called twice for " + name)
	}
	registry.order = append(registry.order, name)
	registry.factories[name] = factory
}

// New returns a fresh instance of the named solver.
func New(name string) (Solver, error) {
	registry.RLock()
	factory := registry.factories[name]
	registry.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("solver: unknown algorithm %q (have %v)", name, Names())
	}
	return factory(), nil
}

// Names lists the registered solver names in registration order.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return append([]string(nil), registry.order...)
}

// All returns one instance of every registered solver in registration order
// (baselines first, paper contributions last for the built-ins).
func All() []Solver {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Solver, 0, len(registry.order))
	for _, name := range registry.order {
		out = append(out, registry.factories[name]())
	}
	return out
}

// ---------------------------------------------------------------------------
// Precomputation

// Prep is the (graph, objective)-dependent precomputation every Solve
// needs: the descending bound-score ranking (CBAS phase 1) and its score
// prefix sums, over an objective.Binding. It is immutable after
// construction and safe to share across concurrent Solve calls, so a
// serving layer computes it once per (graph, objective) and attaches it
// to request contexts with WithPrep.
//
// NewPrep ranks every node (O(n log n)) — the resident, serve-any-request
// form. A Solve whose context carries no Prep no longer pays that sort:
// it builds a partial Prep covering only the top max(K, Starts) nodes by
// heap selection in O(n + m + n log t), which is what makes one-shot
// solves on million-node graphs cheap (the full sort dominated the old
// unprepped profile).
type Prep struct {
	b      *objective.Binding
	g      *graph.Graph   // b.Graph(), cached for the hot identity checks
	ranked []graph.NodeID // node ids by bound score descending, id ascending
	scores []float64      // scores[r] = bound score of ranked[r] (full preps only)
	prefix []float64      // prefix[r] = sum of the r largest bound scores
	limit  int            // 0 = full ranking; else only the top limit nodes are valid
}

// NewPrep ranks every node of the binding's graph by the binding's
// Bound. O(n log n + m). A resident Prep retains the ranking, the
// ranked score sequence (so Rescore can delta-update after a graph
// mutation without re-scoring every node), and the prefix sums of that
// sequence, so topSums for any k is a zero-allocation slice of
// precomputed storage.
func NewPrep(b *objective.Binding) *Prep {
	g := b.Graph()
	n := g.N()
	scores := make([]float64, n)
	p := &Prep{b: b, g: g, ranked: make([]graph.NodeID, n)}
	for i := range scores {
		scores[i] = b.Bound(graph.NodeID(i))
		p.ranked[i] = graph.NodeID(i)
	}
	slices.SortFunc(p.ranked, func(a, b graph.NodeID) int {
		if scores[a] != scores[b] {
			if scores[a] > scores[b] {
				return -1
			}
			return 1
		}
		return int(a - b) // ids are non-negative, so the difference cannot overflow
	})
	p.scores = make([]float64, n)
	p.prefix = make([]float64, n+1)
	for i, v := range p.ranked {
		p.scores[i] = scores[v]
		p.prefix[i+1] = p.prefix[i] + scores[v]
	}
	return p
}

// Rescore delta-updates a full Prep across a graph mutation: newB is the
// same objective bound to the mutated graph, touched the mutation's
// touched-node set (every node whose bound score may have changed,
// including appended nodes — graph.ApplyMutations returns exactly this).
// Untouched entries keep their retained score bits and relative order;
// touched nodes are re-scored on the new binding and merged back in.
// Because (score descending, id ascending) is a strict total order and
// the prefix sums are re-accumulated left-to-right in ranked order, the
// result is bit-identical to NewPrep(newB) at O(n + t·deg + t log t)
// instead of a full O(n log n + m) re-rank. Panics on a partial Prep
// (only resident full preps are ever delta-updated) or on an objective
// mismatch.
//
// Note the bit-identity claim requires the objective's untouched bound
// scores to be unchanged by the mutation — true for any objective whose
// per-node arrays depend only on that node's own η and incident τ, which
// the fused-additive contract implies.
func (p *Prep) Rescore(newB *objective.Binding, touched []graph.NodeID) *Prep {
	if p.limit != 0 {
		panic("solver: Rescore on a partial Prep")
	}
	if newB.Name() != p.b.Name() {
		panic("solver: Rescore across objectives (" + p.b.Name() + " -> " + newB.Name() + ")")
	}
	newG := newB.Graph()
	n2 := newG.N()
	mark := make([]bool, n2)
	type cand struct {
		score float64
		id    graph.NodeID
	}
	fresh := make([]cand, 0, len(touched))
	for _, v := range touched {
		if int(v) < 0 || int(v) >= n2 || mark[v] {
			continue
		}
		mark[v] = true
		fresh = append(fresh, cand{score: newB.Bound(v), id: v})
	}
	slices.SortFunc(fresh, func(a, b cand) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return int(a.id - b.id)
	})
	np := &Prep{
		b:      newB,
		g:      newG,
		ranked: make([]graph.NodeID, 0, n2),
		scores: make([]float64, 0, n2),
		prefix: make([]float64, 1, n2+1),
	}
	emit := func(s float64, id graph.NodeID) {
		np.ranked = append(np.ranked, id)
		np.scores = append(np.scores, s)
		np.prefix = append(np.prefix, np.prefix[len(np.prefix)-1]+s)
	}
	// Merge the surviving old ranking (touched entries skipped) with the
	// freshly scored nodes under the same strict total order NewPrep sorts
	// by. Mutations never remove nodes, so every surviving old id is valid
	// in newG.
	i, j := 0, 0
	for {
		for i < len(p.ranked) && mark[p.ranked[i]] {
			i++
		}
		if i >= len(p.ranked) {
			for ; j < len(fresh); j++ {
				emit(fresh[j].score, fresh[j].id)
			}
			return np
		}
		if j >= len(fresh) {
			emit(p.scores[i], p.ranked[i])
			i++
			continue
		}
		os, oid := p.scores[i], p.ranked[i]
		fs, fid := fresh[j].score, fresh[j].id
		if fs > os || (fs == os && fid < oid) {
			emit(fs, fid)
			j++
		} else {
			emit(os, oid)
			i++
		}
	}
}

// newPartialPrep ranks only the top t nodes by (bound score descending,
// id ascending): a single O(n + m) scoring pass feeding a size-t
// min-heap, then one small sort — no n-sized scratch, no full sort. The
// result is bit-identical to NewPrep's first t ranked entries and prefix
// sums, and is only valid for requests with max(K, Starts) ≤ t (enforced
// by the topSums/Starts guards); it is never shared through WithPrep.
func newPartialPrep(b *objective.Binding, t int) *Prep {
	g := b.Graph()
	n := g.N()
	if t > n {
		t = n
	}
	type cand struct {
		score float64
		id    graph.NodeID
	}
	// ranksBelow: a ranks strictly below b in the (score desc, id asc)
	// order. The heap keeps the t best with the worst at the root.
	ranksBelow := func(a, b cand) bool {
		if a.score != b.score {
			return a.score < b.score
		}
		return a.id > b.id
	}
	h := make([]cand, 0, t)
	siftDown := func() {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			next := i
			if l < len(h) && ranksBelow(h[l], h[next]) {
				next = l
			}
			if r < len(h) && ranksBelow(h[r], h[next]) {
				next = r
			}
			if next == i {
				return
			}
			h[i], h[next] = h[next], h[i]
			i = next
		}
	}
	for i := 0; i < n && t > 0; i++ {
		c := cand{score: b.Bound(graph.NodeID(i)), id: graph.NodeID(i)}
		if len(h) < t {
			h = append(h, c)
			for j := len(h) - 1; j > 0; {
				parent := (j - 1) / 2
				if !ranksBelow(h[j], h[parent]) {
					break
				}
				h[j], h[parent] = h[parent], h[j]
				j = parent
			}
			continue
		}
		if ranksBelow(h[0], c) {
			h[0] = c
			siftDown()
		}
	}
	slices.SortFunc(h, func(a, b cand) int {
		if ranksBelow(b, a) {
			return -1
		}
		return 1
	})
	p := &Prep{b: b, g: g, limit: t, ranked: make([]graph.NodeID, len(h)), prefix: make([]float64, len(h)+1)}
	if t == 0 {
		p.limit = 1 // an empty partial prep still answers Starts(0)/topSums(0)
	}
	for i, c := range h {
		p.ranked[i] = c.id
		p.prefix[i+1] = p.prefix[i] + c.score
	}
	return p
}

// Graph returns the graph this Prep was built for.
func (p *Prep) Graph() *graph.Graph { return p.g }

// Binding returns the objective binding this Prep ranks.
func (p *Prep) Binding() *objective.Binding { return p.b }

// Starts returns the s best start candidates per CBAS phase 1 (§3.1),
// capped at n. The slice aliases internal storage; do not modify.
func (p *Prep) Starts(s int) []graph.NodeID {
	if p.limit > 0 && s > p.limit && p.limit < p.g.N() {
		panic("solver: partial Prep asked for more starts than it ranked")
	}
	if s > len(p.ranked) {
		s = len(p.ranked)
	}
	return p.ranked[:s]
}

// topSums returns prefix sums of the descending bound-score ranking:
// topSum[r] = the largest possible total score of r distinct nodes. The
// pruning bound charges each remaining addition its own node's score, so
// no completion can gain more than topSum[k−|S|]. The slice aliases the
// Prep's precomputed (immutable) prefix array — O(1), no allocation, safe
// to hand to every worker of every concurrent Solve.
//
// A partial Prep only knows the top `limit` scores; truncating its table
// below k would understate the bound and over-prune, so asking beyond the
// limit is a programming error (prepFor sizes partial preps to the
// request, making this unreachable from Solve).
func (p *Prep) topSums(k int) []float64 {
	if p.limit > 0 && k > p.limit && p.limit < p.g.N() {
		panic("solver: partial Prep asked for a deeper pruning table than it ranked")
	}
	if k >= len(p.prefix) {
		k = len(p.prefix) - 1
	}
	return p.prefix[:k+1]
}

// prepCtxKey carries a *Prep through a context.
type prepCtxKey struct{}

// WithPrep returns a context carrying p. A Solve whose context carries a
// Prep for the same (graph, objective) skips its own ranking pass — the
// mechanism the service layer uses to share one ranking across requests.
func WithPrep(ctx context.Context, p *Prep) context.Context {
	return context.WithValue(ctx, prepCtxKey{}, p)
}

// ctxPrep returns the context's (full) Prep when it matches (g, objName).
func ctxPrep(ctx context.Context, g *graph.Graph, objName string) (*Prep, bool) {
	p, ok := ctx.Value(prepCtxKey{}).(*Prep)
	if ok && p != nil && p.g == g && p.limit == 0 && p.b.Name() == objName {
		return p, true
	}
	return nil, false
}

// prepFor returns the context's Prep when it matches (g, obj), else binds
// the objective and builds a partial Prep just deep enough for the
// request — the per-call path avoids the full O(n log n) ranking
// entirely (though a non-aliasing objective still pays its O(n + m)
// Arrays pass).
func prepFor(ctx context.Context, g *graph.Graph, obj objective.Objective, req core.Request) *Prep {
	if p, ok := ctxPrep(ctx, g, obj.Name()); ok {
		return p
	}
	return newPartialPrep(objective.Bind(obj, g), max(req.K, req.Starts))
}

// ---------------------------------------------------------------------------
// Shared incumbent

// incumbent is the cross-start branch-and-bound lower bound every worker of
// one Solve shares: the best willingness of any completed growth so far,
// stored as float bits in an atomic.Uint64 and raised by monotone CAS-max.
// Lock-free — readers pay one atomic load per pruning check, writers CAS
// only on strict improvement. It holds only willingness values of real
// candidate solutions (greedy completions and fully-grown samples), so
// pruning against it can never discard a growth that would have been the
// final best.
type incumbent struct{ bits atomic.Uint64 }

func newIncumbent() *incumbent {
	in := &incumbent{}
	in.bits.Store(math.Float64bits(math.Inf(-1)))
	return in
}

// get returns the current lower bound.
func (in *incumbent) get() float64 { return math.Float64frombits(in.bits.Load()) }

// raise lifts the bound to w if w is an improvement; monotone under races.
func (in *incumbent) raise(w float64) {
	for {
		old := in.bits.Load()
		if math.Float64frombits(old) >= w {
			return
		}
		if in.bits.CompareAndSwap(old, math.Float64bits(w)) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Sample-chunk scheduler

// sampleChunk is the scheduling granularity of the sample budget: each
// (start, chunk) task covers up to this many samples. Small enough to keep
// all workers busy when starts < workers or one start dominates, large
// enough that per-task overhead (channel hop, outcome slot) is noise. The
// decomposition is a pure function of the Request, never of Workers, so it
// cannot affect results.
const sampleChunk = 32

// task is one unit of scheduled work: either the deterministic greedy
// completion of start startIdx (greedy set, empty sample range) or samples
// [lo, hi) of that start.
type task struct {
	startIdx int
	lo, hi   int
	greedy   bool
}

// outcome is what one task produced.
type outcome struct {
	sol     core.Solution
	samples int64
	pruned  int64
}

// chunkRunner executes one task. Implementations must derive all randomness
// from root.SplitN(t.startIdx, sampleIdx) so a sample's growth is a pure
// function of the task — independent of worker scheduling — and must return
// early (with a partial outcome) once ctx is done.
type chunkRunner func(ctx context.Context, ws *workspace, t task, start graph.NodeID, root *rng.Stream, req core.Request) outcome

// multiStart is the shared parallel driver: it decomposes the per-start
// sample budget into (start, sample-chunk) tasks, runs them as one job on
// an Executor (each task on a workspace drawn from a WorkspacePool), and
// reduces per-task outcomes in task order. budget is the per-start sample
// count (0 for deterministic solvers); warm schedules each start's greedy
// completion ahead of all sampling.
//
// Report.Best is schedule-independent: every sample's growth is a pure
// function of its sub-stream, and the shared incumbent only ever prunes
// growths that provably cannot beat a completed candidate. Report.Pruned is
// advisory — it depends on how fast the incumbent rises under a given
// schedule. When ctx is cancelled or its deadline passes, tasks stop
// between samples, the remaining ones drain as no-ops, and the call
// returns ctx.Err().
func multiStart(ctx context.Context, name string, g *graph.Graph, req core.Request, budget int, warm bool, run chunkRunner) (core.Report, error) {
	began := time.Now() //lint:allow determinism(advisory Report.Elapsed timing; never read by the search)
	if g == nil || g.N() == 0 {
		return core.Report{}, fmt.Errorf("solver: %s on empty graph", name)
	}
	if err := req.Validate(); err != nil {
		return core.Report{}, fmt.Errorf("solver: %s: %w", name, err)
	}
	if err := ctx.Err(); err != nil {
		return core.Report{}, err
	}
	obj, err := objective.New(req.Objective)
	if err != nil {
		return core.Report{}, fmt.Errorf("solver: %s: %w", name, err)
	}
	// One bound-score ranking feeds both start selection and the pruning
	// bound; workers share the read-only topSum slice. A context-attached
	// Prep (WithPrep) makes this pass free; without one, a partial Prep
	// ranks only the top max(K, Starts) nodes.
	prep := prepFor(ctx, g, obj, req)
	b := prep.b
	starts := prep.Starts(req.Starts)
	topSum := prep.topSums(req.K)
	// The sampler backend is decided once from whole-graph statistics so
	// every growth of this solve — region or whole-graph — draws from the
	// random stream identically.
	useFen := req.Sampler == core.SamplerFenwick ||
		(req.Sampler == core.SamplerAuto && float64(req.K)*g.AvgDegree() > FenwickCrossover)
	root := rng.New(req.Seed)

	// Locality: fetch or extract one (K−1)-hop region per start. regions
	// is nil when region mode is off or not worthwhile; individual entries
	// are nil for starts whose ball exceeded the extraction cap (those
	// tasks run on the whole graph). wsCap sizes a solve-local workspace
	// pool: O(max region) when every start has a region, O(n) otherwise.
	regions, wsCap := planRegions(ctx, b, starts, req)
	global := bindingSubstrate(b)

	// Budget decomposition. Greedy warm starts are their own tasks, emitted
	// ahead of every sampling chunk: they are cheap, they are candidate
	// solutions in their own right, and running them first lifts the shared
	// incumbent to the best greedy completion across ALL starts before any
	// sample is drawn — a strictly tighter pruning bound than the per-start
	// warm start it replaces. Sampling chunks follow in start-major order.
	// The decomposition is a function of the Request only, never of
	// Workers, so it cannot affect results.
	chunks := (budget + sampleChunk - 1) / sampleChunk
	tasks := make([]task, 0, len(starts)*(chunks+1))
	if warm {
		for si := range starts {
			tasks = append(tasks, task{startIdx: si, greedy: true})
		}
	}
	for si := range starts {
		for c := 0; c < chunks; c++ {
			lo := c * sampleChunk
			hi := lo + sampleChunk
			if hi > budget {
				hi = budget
			}
			tasks = append(tasks, task{startIdx: si, lo: lo, hi: hi})
		}
	}
	if len(tasks) == 0 {
		// Purely sampling-based solver with a zero budget: keep one empty
		// task per start so the explicit no-group error below still fires.
		for si := range starts {
			tasks = append(tasks, task{startIdx: si})
		}
	}
	outcomes := make([]outcome, len(tasks))
	inc := newIncumbent()

	// Tasks of many solves interleave on one executor worker, so workspaces
	// are per task, not per worker: drawn from the context's per-graph pool,
	// else from a solve-local one sized to the planned regions.
	pool := workspacePoolFor(ctx, g)
	if pool == nil {
		pool = newWorkspacePool(g, wsCap)
	}
	// Every task runs on an Executor — the context's, else the package
	// default — with Request.Workers as the solve's parallelism cap. Each
	// task binds its substrate: this start's compact region when one
	// exists, the whole graph otherwise (growth is bit-identical either
	// way, see graph.Region; only the memory footprint changes). Outcomes
	// land in task order, so Report.Best is schedule-independent.
	deadline, _ := ctx.Deadline()
	expired := executorFor(ctx).run(LaneFor(ctx), deadline, req.Workers, len(tasks), func(idx int) {
		if ctx.Err() != nil {
			return // cancelled solve: drain remaining tasks as no-ops
		}
		t := tasks[idx]
		ws := pool.get(req, topSum, useFen, inc)
		defer pool.put(ws)
		start := starts[t.startIdx]
		if regions != nil && regions[t.startIdx] != nil {
			r := regions[t.startIdx]
			ws.bindRegion(r)
			start = r.LocalStart()
		} else {
			ws.bindGraph(global)
		}
		outcomes[idx] = run(ctx, ws, t, start, root, req)
	})
	if expired && ctx.Err() == nil {
		// The executor dropped tasks because the deadline passed at
		// dequeue; the context's own timer may not have fired yet, so
		// report the timeout deterministically rather than racing it.
		return core.Report{}, context.DeadlineExceeded
	}
	if err := ctx.Err(); err != nil {
		return core.Report{}, err
	}

	rep := core.Report{Algo: name, Starts: len(starts)}
	best := core.Solution{Willingness: math.Inf(-1)}
	for _, oc := range outcomes {
		rep.SamplesDrawn += oc.samples
		rep.Pruned += oc.pruned
		if oc.sol.Size() == 0 {
			continue // task produced no candidate (empty chunk, all pruned)
		}
		if oc.sol.Better(best) {
			best = oc.sol
		}
	}
	if best.Size() == 0 {
		// Only reachable for purely sampling-based solvers given a zero
		// sample budget — an explicit error, not a silent default.
		return core.Report{}, fmt.Errorf("solver: %s produced no group (zero sample budget?): %w", name, ErrNoGroup)
	}
	rep.Best = best
	rep.Elapsed = time.Since(began) //lint:allow determinism(advisory Report.Elapsed timing; never read by the search)
	return rep, nil
}
