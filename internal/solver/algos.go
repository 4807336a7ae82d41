package solver

import (
	"context"
	"math"

	"waso/internal/core"
	"waso/internal/graph"
	"waso/internal/rng"
)

// The four paper algorithms self-register so New/Names/All see them without
// a hardcoded list; future algorithms register the same way.
func init() {
	Register("dgreedy", func() Solver { return DGreedy{} })
	Register("rgreedy", func() Solver { return RGreedy{} })
	Register("cbas", func() Solver { return CBAS{} })
	Register("cbasnd", func() Solver { return CBASND{} })
}

// DGreedy is the deterministic baseline: from each start node it repeatedly
// adds the frontier node with the largest marginal willingness gain ΔW(v|S)
// until the group reaches k, then keeps the best start. Entirely
// deterministic — Seed and Samples are ignored.
type DGreedy struct{}

// Name implements Solver.
func (DGreedy) Name() string { return "dgreedy" }

// Solve implements Solver.
func (DGreedy) Solve(ctx context.Context, g *graph.Graph, req core.Request) (core.Report, error) {
	return multiStart(ctx, "dgreedy", g, req, 0, true,
		func(_ context.Context, ws *workspace, _ task, start graph.NodeID, _ *rng.Stream) outcome {
			ws.growGreedy(start)
			return outcome{sol: ws.snapshot()}
		})
}

// RGreedy is the randomized baseline: each growth step draws a frontier
// node with probability proportional to the willingness of the resulting
// group, W(S ∪ {v}); the best of Request.Samples groups per start wins.
type RGreedy struct{}

// Name implements Solver.
func (RGreedy) Name() string { return "rgreedy" }

// Solve implements Solver.
func (RGreedy) Solve(ctx context.Context, g *graph.Graph, req core.Request) (core.Report, error) {
	return multiStart(ctx, "rgreedy", g, req, req.Samples, false,
		func(ctx context.Context, ws *workspace, t task, start graph.NodeID, root *rng.Stream) outcome {
			oc := outcome{sol: core.Solution{Willingness: math.Inf(-1)}}
			for s := t.lo; s < t.hi; s++ {
				if ctx.Err() != nil {
					return oc
				}
				stream := root.SplitN(uint64(t.startIdx), uint64(s))
				oc.samples++
				ws.growWeighted(start, stream, weightGroup, 0)
				if ws.will > oc.sol.Willingness {
					oc.sol = ws.snapshot()
				}
			}
			return oc
		})
}

// CBAS is the paper's uniform community-based adaptive sampling (§3.1):
// start nodes come from the NodeScore ranking (phase 1); each sample grows
// a connected group by drawing frontier nodes uniformly at random (phase
// 2), abandoning samples whose upper bound cannot beat the incumbent. The
// shared incumbent is seeded with the deterministic greedy completions of
// the start nodes and rises as any worker completes a better growth.
type CBAS struct{}

// Name implements Solver.
func (CBAS) Name() string { return "cbas" }

// Solve implements Solver.
func (CBAS) Solve(ctx context.Context, g *graph.Graph, req core.Request) (core.Report, error) {
	return multiStart(ctx, "cbas", g, req, req.Samples, true, cbasChunk(false))
}

// CBASND is CBAS with non-uniform adapted probabilities (§3.2): frontier
// nodes are drawn with P(v) ∝ ΔW(v|S)^α, concentrating samples on
// high-gain extensions. α (Request.Alpha) interpolates between uniform-ish
// exploration (α→0) and greedy exploitation (α→∞).
type CBASND struct{}

// Name implements Solver.
func (CBASND) Name() string { return "cbasnd" }

// Solve implements Solver.
func (CBASND) Solve(ctx context.Context, g *graph.Graph, req core.Request) (core.Report, error) {
	return multiStart(ctx, "cbasnd", g, req, req.Samples, true, cbasChunk(true))
}

// cbasChunk builds the per-task search shared by CBAS (uniform draws) and
// CBASND (adapted-probability draws). The first chunk of each start opens
// with the deterministic greedy completion, which both guarantees the final
// answer never scores below DGreedy and raises the shared incumbent before
// any sampling. Completed samples raise the incumbent too, so every
// worker's pruning bound tightens with the globally best growth seen so
// far, not just this task's.
func cbasChunk(nonuniform bool) chunkRunner {
	return func(ctx context.Context, ws *workspace, t task, start graph.NodeID, root *rng.Stream) outcome {
		oc := outcome{sol: core.Solution{Willingness: math.Inf(-1)}}
		if t.greedy {
			ws.growGreedy(start)
			oc.sol = ws.snapshot()
			ws.inc.raise(ws.will)
		}
		for s := t.lo; s < t.hi; s++ {
			if ctx.Err() != nil {
				return oc
			}
			stream := root.SplitN(uint64(t.startIdx), uint64(s))
			oc.samples++
			var abandoned bool
			if nonuniform {
				abandoned = ws.growWeighted(start, stream, weightDeltaPow, oc.sol.Willingness)
			} else {
				abandoned = ws.growUniform(start, stream, oc.sol.Willingness)
			}
			if abandoned {
				oc.pruned++
				continue
			}
			ws.inc.raise(ws.will)
			if ws.will > oc.sol.Willingness {
				oc.sol = ws.snapshot()
			}
		}
		return oc
	}
}
