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
// Report.Best must be bit-identical on executors of 1, 2, 4 and 8 workers
// and with pruning disabled, over ≥ 20 seeds. Cross-start pruning only
// ever abandons growths whose upper bound cannot beat a completed
// candidate, so neither the worker schedule (which decides how fast the
// incumbent rises) nor pruning itself may change the answer — only the
// advisory Pruned counter. Every objective runs the request's own Starts
// and Samples, so each one is checked at the same budget.
//
// The executors' sizes are not limited by the host's core count, so the
// schedules genuinely differ; their task counters prove the solves ran
// there.
func TestWorkerCountInvariance(t *testing.T) {
	sizes := []int{1, 2, 4, 8}
	ctxs := make([]context.Context, len(sizes))
	executors := make([]*Executor, len(sizes))
	for i, w := range sizes {
		executors[i] = NewExecutor(w)
		defer executors[i].Close()
		ctxs[i] = WithExecutor(context.Background(), executors[i])
	}

	const seeds = 20
	graphs := make([]*graph.Graph, seeds)
	for i := range graphs {
		graphs[i] = powerlawInstance(t, 400, 200+uint64(i))
	}

	for _, objName := range objective.Names() {
		t.Run(objName, func(t *testing.T) {
			for _, s := range []Solver{RGreedy{}, CBAS{}, CBASND{}} {
				for seed := uint64(0); seed < seeds; seed++ {
					r := req(8, func(r *core.Request) {
						r.Samples = 25
						r.Starts = 6
						r.Seed = seed
						r.Objective = objName
					})
					g := graphs[seed]
					ref, err := s.Solve(ctxs[0], g, r)
					if err != nil {
						t.Fatalf("%s seed=%d workers=1: %v", s.Name(), seed, err)
					}
					for i, workers := range sizes[1:] {
						rep, err := s.Solve(ctxs[i+1], g, r)
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
					// The same solve with pruning disabled must reproduce the
					// pruned answer exactly and report zero pruned samples.
					unpruned := WithPrep(ctxs[len(ctxs)-1], unprunedPrep(testBindAs(objName, g)))
					rep, err := s.Solve(unpruned, g, r)
					if err != nil {
						t.Fatalf("%s seed=%d unpruned: %v", s.Name(), seed, err)
					}
					if !rep.Best.Equal(ref.Best) || rep.Best.Willingness != ref.Best.Willingness {
						t.Errorf("%s seed=%d: unpruned best %v != pruned best %v",
							s.Name(), seed, rep.Best, ref.Best)
					}
					if rep.Pruned != 0 {
						t.Errorf("%s seed=%d: unpruned solve still pruned %d samples", s.Name(), seed, rep.Pruned)
					}
				}
			}
		})
	}
	for i, ex := range executors {
		if ex.Stats().Tasks == 0 {
			t.Errorf("%d-worker executor saw no tasks — solves ran on the default pool", sizes[i])
		}
	}
}
