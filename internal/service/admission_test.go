package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"waso/internal/admit"
	"waso/internal/core"
	"waso/internal/gen"
	"waso/internal/solver"
)

// testService builds a service with one generated graph resident.
func testService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	if _, err := s.Generate("g", gen.Spec{Kind: "powerlaw", N: 500, AvgDeg: 8, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAdmissionInvariance is the acceptance check: for non-degraded
// solves, Report.Best is bit-identical whether admission control is off
// (zero config) or on with live thresholds — the controller gates
// scheduling, never answers.
func TestAdmissionInvariance(t *testing.T) {
	off := testService(t, Config{})
	on := testService(t, Config{Admit: admit.Config{
		MaxQueue:  1 << 20,
		P99Limit:  time.Hour,
		ClientMax: 64,
		Degrade:   true, // enabled but never under pressure here
	}})

	ctx := WithClient(context.Background(), "invariance")
	for _, algo := range []string{"cbas", "cbasnd", "rgreedy"} {
		for _, seed := range []uint64{1, 9} {
			req := core.DefaultRequest(8)
			req.Samples = 40
			req.Seed = seed
			want, err := off.Solve(context.Background(), "g", algo, req)
			if err != nil {
				t.Fatalf("%s/%d admission-off: %v", algo, seed, err)
			}
			got, err := on.Solve(ctx, "g", algo, req)
			if err != nil {
				t.Fatalf("%s/%d admission-on: %v", algo, seed, err)
			}
			if !got.Best.Equal(want.Best) || got.Best.Willingness != want.Best.Willingness {
				t.Errorf("%s/%d: admission-on best %v != admission-off %v", algo, seed, got.Best, want.Best)
			}
			if got.Degraded || want.Degraded {
				t.Errorf("%s/%d: unloaded solve reported Degraded", algo, seed)
			}
		}
	}
	st := on.Admission()
	if st.Accepted == 0 || st.ShedTotal != 0 || st.Degraded != 0 {
		t.Errorf("admission-on stats: %+v", st)
	}
}

// syntheticPressure swaps the service's controller for one driven by a
// fake queue-depth signal, so tests force degrade/shed bands
// deterministically instead of racing the real executor.
func syntheticPressure(s *Service, cfg admit.Config, depth *int) {
	s.adm = admit.New(cfg, admit.Signals{
		QueueDepth: func() (int, int) { return *depth, *depth },
		QueueWait:  s.exec.QueueWait().Snapshot,
	})
}

// TestDegradedSolveAnnotated: in the degrade band, Solve clamps the budget
// and marks the Report; the answer is still a valid solution.
func TestDegradedSolveAnnotated(t *testing.T) {
	s := testService(t, Config{})
	depth := 0
	syntheticPressure(s, admit.Config{
		MaxQueue: 100, Degrade: true, DegradeSamples: 8, DegradeStarts: 1,
	}, &depth)

	req := core.DefaultRequest(8)
	req.Samples = 5000
	full, err := s.Solve(context.Background(), "g", "cbasnd", req)
	if err != nil || full.Degraded {
		t.Fatalf("unpressured solve: degraded=%v err=%v", full.Degraded, err)
	}
	if full.SamplesDrawn <= 8 {
		t.Fatalf("full budget drew only %d samples — clamp test would be vacuous", full.SamplesDrawn)
	}

	depth = 60 // inside the degrade band [50, 100): degrade, don't shed
	deg, err := s.Solve(context.Background(), "g", "cbasnd", req)
	if err != nil {
		t.Fatalf("degraded solve: %v", err)
	}
	if !deg.Degraded {
		t.Error("pressured solve not marked Degraded")
	}
	if deg.SamplesDrawn > 8 {
		t.Errorf("degraded solve drew %d samples, budget clamp was 8", deg.SamplesDrawn)
	}
	if deg.Best.Size() == 0 {
		t.Error("degraded solve returned no solution")
	}

	depth = 100 // at the cap: shed
	_, err = s.Solve(context.Background(), "g", "cbasnd", req)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != admit.ReasonQueue {
		t.Fatalf("solve at queue cap: err = %v, want OverloadError(queue)", err)
	}
	if oe.RetryAfter <= 0 {
		t.Error("shed without RetryAfter hint")
	}

	// Degraded batches annotate every item.
	depth = 60
	reps, err := s.SolveBatch(context.Background(), "g", []core.BatchItem{
		{Algo: "cbas", Request: req}, {Algo: "rgreedy", Request: req},
	})
	if err != nil {
		t.Fatalf("degraded batch: %v", err)
	}
	for i, br := range reps {
		if br.Err != nil {
			t.Fatalf("item %d: %v", i, br.Err)
		}
		if !br.Report.Degraded {
			t.Errorf("item %d not marked Degraded", i)
		}
		if br.Report.SamplesDrawn > 8 {
			t.Errorf("item %d drew %d samples past the clamp", i, br.Report.SamplesDrawn)
		}
	}
}

// TestBatchShedsAsBulk: the bulk lane's lower queue cap (80% of MaxQueue)
// sheds batches while interactive solves are still admitted.
func TestBatchShedsAsBulk(t *testing.T) {
	s := testService(t, Config{})
	depth := 0
	bulkDepth := 0
	s.adm = admit.New(admit.Config{MaxQueue: 100},
		admit.Signals{QueueDepth: func() (int, int) { return depth, bulkDepth }})

	depth, bulkDepth = 90, 80 // bulk cap (80) hit; interactive cap (100) not
	req := core.DefaultRequest(6)
	req.Samples = 20
	if _, err := s.SolveBatch(context.Background(), "g",
		[]core.BatchItem{{Algo: "cbas", Request: req}}); err == nil {
		t.Error("bulk batch admitted past the bulk queue cap")
	}
	if _, err := s.Solve(context.Background(), "g", "cbas", req); err != nil {
		t.Errorf("interactive solve shed below its cap: %v", err)
	}
}

// TestServiceDrain: StartDrain sheds new work with ReasonDrain (mapped to
// 503 by transports), flips Health.Draining, and is idempotent.
func TestServiceDrain(t *testing.T) {
	s := testService(t, Config{})
	if s.Draining() || s.Health().Draining {
		t.Fatal("fresh service reports draining")
	}
	s.StartDrain()
	s.StartDrain()
	if !s.Draining() || !s.Health().Draining {
		t.Fatal("drain flag not set")
	}
	req := core.DefaultRequest(6)
	req.Samples = 10
	_, err := s.Solve(context.Background(), "g", "cbas", req)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != admit.ReasonDrain {
		t.Fatalf("solve during drain: err = %v, want OverloadError(drain)", err)
	}
	if _, err := s.SolveBatch(context.Background(), "g",
		[]core.BatchItem{{Algo: "cbas", Request: req}}); !errors.As(err, &oe) {
		t.Fatalf("batch during drain: %v", err)
	}
}

// TestClientQuotaByContext: WithClient identities gate quotas; quota slots
// release even when solves fail, so a misbehaving client recovers.
func TestClientQuotaByContext(t *testing.T) {
	s := testService(t, Config{Admit: admit.Config{ClientMax: 1}})
	req := core.DefaultRequest(6)
	req.Samples = 10

	ctx := WithClient(context.Background(), "tenant-1")
	// Sequential solves under a 1-slot quota must all pass: each release
	// returns the slot, including after an error outcome.
	if _, err := s.Solve(ctx, "g", "cbas", req); err != nil {
		t.Fatalf("first solve: %v", err)
	}
	if _, err := s.Solve(ctx, "g", "nosuchalgo", req); err == nil {
		t.Fatal("bad algo passed")
	}
	if _, err := s.Solve(ctx, "g", "cbas", req); err != nil {
		t.Errorf("solve after failed solve: quota slot leaked: %v", err)
	}
	if st := s.Admission(); st.Clients != 0 {
		t.Errorf("%d client entries leaked", st.Clients)
	}
}

// TestBatchRunsOnBulkLane: batch items actually schedule on the executor's
// bulk lane and Solve on the interactive lane.
func TestBatchRunsOnBulkLane(t *testing.T) {
	s := testService(t, Config{})
	req := core.DefaultRequest(6)
	req.Samples = 30
	if _, err := s.Solve(context.Background(), "g", "cbasnd", req); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveBatch(context.Background(), "g",
		[]core.BatchItem{{Algo: "cbasnd", Request: req}}); err != nil {
		t.Fatal(err)
	}
	st := s.exec.Stats()
	if st.Lanes[solver.LaneInteractive].Jobs == 0 {
		t.Error("Solve scheduled nothing on the interactive lane")
	}
	if st.Lanes[solver.LaneBulk].Jobs == 0 {
		t.Error("SolveBatch scheduled nothing on the bulk lane")
	}
}
