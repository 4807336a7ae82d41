package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 500}, {99, 990}, {100, 1000}, {0.01, 1},
	} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// p99 of 1000 samples leaves exactly ten samples above it.
	above := 0
	for _, v := range sorted {
		if v > percentile(sorted, 99) {
			above++
		}
	}
	if above != 10 {
		t.Errorf("%d samples above p99 of 1000, want 10", above)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// The expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		want   [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.81, 0.79, 0.83, 0.80, 0.95, 0.78, 0.82, 0.80, 0.81, 0.84},
			[3]float64{0.7975000000000001, 0.81, 0.8324999999999999}},
	} {
		q1, q2, q3 := quartiles(tc.values)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", tc.values, i, got, tc.want[i])
			}
		}
	}
}

func TestMedianAndSummarize(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	sp := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if sp.Median != 5.5 || sp.Q1 != 2.75 || sp.Q3 != 8.25 {
		t.Errorf("summarize = %+v", sp)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(sp.IQRFrac-want) > 1e-15 {
		t.Errorf("IQRFrac = %v, want %v", sp.IQRFrac, want)
	}
	if want := 9 / 5.5; math.Abs(sp.RangeFrac-want) > 1e-15 {
		t.Errorf("RangeFrac = %v, want %v", sp.RangeFrac, want)
	}
}

func TestHistogram(t *testing.T) {
	got := histogram([]float64{0.5, 0.9, 1, 7, 10, 150})
	want := "[0,1) 2, [1,2) 1, [2,5) 0, [5,10) 1, [10,20) 1, [20,50) 0, [50,100) 0, ≥100 1"
	if got != want {
		t.Errorf("histogram = %q, want %q", got, want)
	}
}
