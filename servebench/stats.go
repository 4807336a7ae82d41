package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. With n samples, p99 leaves n − ceil(0.99·n) samples above it, so
// 1000 samples keep ten beyond the reported p99. Returns 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// quartiles returns the three cut points dividing values into four groups,
// computed exactly as Python's statistics.quantiles(values, n=4) does with
// its default "exclusive" method, so the steadiness figures printed here
// match what a Python check of the same values computes. It needs at least
// two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := slices.Clone(values)
	slices.Sort(data)
	ld := len(data)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// median returns the middle value of values (the mean of the two middle
// ones for an even count), or 0 for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	data := slices.Clone(values)
	slices.Sort(data)
	n := len(data)
	if n%2 == 1 {
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}

// spread summarizes one metric across repeated runs: its median, quartiles,
// the interquartile distance and the full range, both as shares of the
// median.
type spread struct {
	Median, Q1, Q3 float64
	IQRFrac        float64 // (Q3 − Q1) / median
	RangeFrac      float64 // (max − min) / median
}

// summarize computes the spread of values (at least two).
func summarize(values []float64) spread {
	q1, _, q3 := quartiles(values)
	med := median(values)
	lo, hi := slices.Min(values), slices.Max(values)
	s := spread{Median: med, Q1: q1, Q3: q3}
	if med != 0 {
		s.IQRFrac = (q3 - q1) / math.Abs(med)
		s.RangeFrac = (hi - lo) / math.Abs(med)
	}
	return s
}

// millis converts durations to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	slices.Sort(out)
	return out
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencyEdges are the bucket edges, in ms, of the report's latency
// histogram: fine below 10 ms, where the executor wake-up steps sit.
var latencyEdges = []float64{1, 2, 5, 10, 20, 50, 100}

// histogram renders how many of the sorted latencies (ms) fall in each
// bucket between latencyEdges.
func histogram(sorted []float64) string {
	var b strings.Builder
	lo, i := 0.0, 0
	for _, hi := range latencyEdges {
		n := 0
		for ; i < len(sorted) && sorted[i] < hi; i++ {
			n++
		}
		fmt.Fprintf(&b, "[%g,%g) %d, ", lo, hi, n)
		lo = hi
	}
	fmt.Fprintf(&b, "≥%g %d", lo, len(sorted)-i)
	return b.String()
}
