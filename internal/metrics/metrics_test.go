package metrics

import (
	"math"
	"sync"
	"testing"

	"waso/internal/rng"
	"waso/internal/stats"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(10)
	if g.Value() != 11 {
		t.Errorf("gauge = %d, want 11", g.Value())
	}
	g.Set(-3)
	if g.Value() != -3 {
		t.Errorf("gauge = %d, want -3", g.Value())
	}
}

// TestMomentsAgainstBatch: the streaming accumulator must agree with the
// batch statistics of the experiment harness on random data.
func TestMomentsAgainstBatch(t *testing.T) {
	r := rng.New(7)
	xs := make([]float64, 5000)
	var m Moments
	for i := range xs {
		xs[i] = r.Float64()*100 - 20
		m.Observe(xs[i])
	}
	s := m.Snapshot()
	if s.Count != uint64(len(xs)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(xs))
	}
	wantMean := stats.Mean(xs)
	if math.Abs(s.Mean-wantMean) > 1e-9*math.Abs(wantMean) {
		t.Errorf("Mean = %v, want %v", s.Mean, wantMean)
	}
	wantSD := stats.StdDev(xs)
	if math.Abs(s.StdDev-wantSD) > 1e-9*wantSD {
		t.Errorf("StdDev = %v, want %v", s.StdDev, wantSD)
	}
	lo, hi := stats.MinMax(xs)
	if s.Min != lo || s.Max != hi {
		t.Errorf("Min/Max = %v/%v, want %v/%v", s.Min, s.Max, lo, hi)
	}
}

func TestMomentsEdgeCases(t *testing.T) {
	var m Moments
	if s := m.Snapshot(); s.Count != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
	m.Observe(math.NaN()) // dropped
	m.Observe(3)
	s := m.Snapshot()
	if s.Count != 1 || s.Mean != 3 || s.StdDev != 0 || s.Min != 3 || s.Max != 3 {
		t.Errorf("single-sample snapshot = %+v", s)
	}
	// Constant stream: zero variance must read as a zero stddev.
	for i := 0; i < 10; i++ {
		m.Observe(3)
	}
	s = m.Snapshot()
	if s.StdDev != 0 {
		t.Errorf("constant-stream snapshot = %+v", s)
	}
}

// TestMomentsPrecision: a small spread on a large offset, where the
// one-pass Σx² form cancels catastrophically. Each case observes 10^5
// values offset + U[0,1) and compares StdDev with the two-pass stddev of
// x − offset; every such subtraction is exact (Sterbenz), so the reference
// carries only the two-pass rounding of values in [0, 1).
func TestMomentsPrecision(t *testing.T) {
	const n = 100000
	for _, tc := range []struct {
		offset, maxRelErr float64
	}{
		{1e6, 1e-6},
		{1e9, 1e-6},
	} {
		r := rng.New(3)
		shifted := make([]float64, n)
		var m Moments
		for i := range shifted {
			x := tc.offset + r.Float64()
			m.Observe(x)
			shifted[i] = x - tc.offset
		}
		want := stats.StdDev(shifted)
		got := m.Snapshot().StdDev
		if rel := math.Abs(got-want) / want; !(rel <= tc.maxRelErr) {
			t.Errorf("offset %g: StdDev = %v, want %v (relative error %.3g > %g)", tc.offset, got, want, rel, tc.maxRelErr)
		}
	}
}

func TestMomentsConcurrent(t *testing.T) {
	var m Moments
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Observe(float64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("Count = %d, want 8000", s.Count)
	}
	// Sum of 0..7999 regardless of interleaving.
	wantMean := 7999.0 / 2
	if math.Abs(s.Mean-wantMean) > 1e-6 {
		t.Errorf("Mean = %v, want %v", s.Mean, wantMean)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// ≤1: {0.5, 1}; ≤2: {1.5, 2}; ≤5: {3}; overflow: {10}; NaN dropped.
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Errorf("Count = %d, want 6", s.Count)
	}
	if math.Abs(s.Sum-18) > 1e-12 {
		t.Errorf("Sum = %v, want 18", s.Sum)
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i % 35)) // values 0..34, uniform-ish
	}
	s := h.Snapshot()
	p50 := s.Percentile(50)
	if p50 < 10 || p50 > 30 {
		t.Errorf("p50 = %v, want within [10, 30]", p50)
	}
	if p := s.Percentile(100); p > 40 {
		t.Errorf("p100 = %v beyond the last boundary", p)
	}
	// Rank in the overflow bucket reports the last boundary.
	h2 := NewHistogram([]float64{1})
	h2.Observe(50)
	if p := h2.Snapshot().Percentile(99); p != 1 {
		t.Errorf("overflow percentile = %v, want 1", p)
	}
	if p := (HistogramSnapshot{}).Percentile(99); p != 0 {
		t.Errorf("empty percentile = %v, want 0", p)
	}
}

func TestHistogramSub(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	h.Observe(0.5)
	base := h.Snapshot()
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	d := h.Snapshot().Sub(base)
	if d.Count != 3 || d.Counts[0] != 1 || d.Counts[1] != 1 || d.Counts[2] != 1 {
		t.Errorf("delta = %+v", d)
	}
	if math.Abs(d.Sum-105.5) > 1e-12 {
		t.Errorf("delta sum = %v, want 105.5", d.Sum)
	}
}

func TestNewHistogramValidation(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}, {math.Inf(1)}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefLatencyBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 16000 {
		t.Fatalf("Count = %d, want 16000", s.Count)
	}
	total := uint64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Errorf("bucket total %d != count %d", total, s.Count)
	}
}
