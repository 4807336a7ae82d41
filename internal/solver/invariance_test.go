package solver

import (
	"context"
	"testing"

	"waso/internal/core"
	"waso/internal/graph"
	"waso/internal/objective"
)

// TestWorkerCountInvariance is the property guarding the shared-incumbent
// argument, checked per registered objective: for every randomized solver,
// Report.Best must be bit-identical across workers ∈ {1, 2, 4, 0 (no cap)}
// and with pruning force-disabled, over ≥ 20 seeds. Cross-start pruning
// only ever abandons growths whose upper bound cannot beat a completed
// candidate, so neither the worker schedule (which decides how fast the
// incumbent rises) nor pruning itself may change the answer — only the
// advisory Pruned counter. Every objective runs the request's own Starts
// and Samples, so each one is checked at the same budget.
//
// The solves run on an attached 4-worker executor, so the worker counts
// are not limited by the host's core count and the schedules genuinely
// differ; its task counter proves they ran there.
func TestWorkerCountInvariance(t *testing.T) {
	ex := NewExecutor(4)
	defer ex.Close()
	ctx := WithExecutor(context.Background(), ex)

	const seeds = 20
	graphs := make([]*graph.Graph, seeds)
	for i := range graphs {
		graphs[i] = powerlawInstance(t, 400, 200+uint64(i))
	}

	for _, objName := range objective.Names() {
		t.Run(objName, func(t *testing.T) {
			for _, s := range []Solver{RGreedy{}, CBAS{}, CBASND{}} {
				for seed := uint64(0); seed < seeds; seed++ {
					base := req(8, func(r *core.Request) {
						r.Samples = 25
						r.Starts = 6
						r.Seed = seed
						r.Workers = 1
						r.Objective = objName
					})
					g := graphs[seed]
					ref, err := s.Solve(ctx, g, base)
					if err != nil {
						t.Fatalf("%s seed=%d workers=1: %v", s.Name(), seed, err)
					}
					for _, workers := range []int{2, 4, 0} {
						r := base
						r.Workers = workers
						rep, err := s.Solve(ctx, g, r)
						if err != nil {
							t.Fatalf("%s seed=%d workers=%d: %v", s.Name(), seed, workers, err)
						}
						if !rep.Best.Equal(ref.Best) || rep.Best.Willingness != ref.Best.Willingness {
							t.Errorf("%s seed=%d: workers=%d best %v != workers=1 best %v",
								s.Name(), seed, workers, rep.Best, ref.Best)
						}
						if rep.SamplesDrawn != ref.SamplesDrawn {
							t.Errorf("%s seed=%d: workers=%d drew %d samples, workers=1 drew %d",
								s.Name(), seed, workers, rep.SamplesDrawn, ref.SamplesDrawn)
						}
					}
					// Pruning force-disabled (any worker count) must reproduce the
					// pruned answer exactly and report zero pruned samples.
					noPrune := base
					noPrune.Prune = false
					noPrune.Workers = 0
					rep, err := s.Solve(ctx, g, noPrune)
					if err != nil {
						t.Fatalf("%s seed=%d prune=off: %v", s.Name(), seed, err)
					}
					if !rep.Best.Equal(ref.Best) || rep.Best.Willingness != ref.Best.Willingness {
						t.Errorf("%s seed=%d: prune=off best %v != pruned best %v",
							s.Name(), seed, rep.Best, ref.Best)
					}
					if rep.Pruned != 0 {
						t.Errorf("%s seed=%d: prune=off still pruned %d samples", s.Name(), seed, rep.Pruned)
					}
				}
			}
		})
	}
	if ex.Stats().Tasks == 0 {
		t.Error("attached executor saw no tasks — solves ran on the default pool")
	}
}
