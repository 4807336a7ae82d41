// Package metrics is the dependency-free streaming-telemetry core of the
// serving stack: lock-cheap counters and gauges, Welford/moments
// accumulators for solution-quality distributions, and fixed-boundary
// latency histograms with percentile estimation — plus a Registry
// (registry.go) that renders everything as Prometheus text exposition.
//
// The accumulators are streaming by construction: every instrument is O(1)
// memory regardless of how many observations it absorbs, so a server that
// answers millions of solves never buffers samples to summarize them. The
// moments recursion is Welford's numerically stable mean/variance update.
//
// Layering: metrics sits beside bitset/rng/stats as shared substrate — it
// imports only the standard library and is imported by solver, service and
// the cmds. Package stats stays the batch/formatting toolkit of the
// experiment harness; metrics is the online counterpart for long-lived
// servers.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer value that can go up and down (queue
// depths, in-flight requests). The zero value is ready to use; all methods
// are safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Moments is a streaming accumulator of the mean and variance of a
// distribution, plus its extrema: O(1) memory, numerically stable under
// millions of observations (Welford's algorithm). It answers count, mean,
// stddev, min and max without ever holding the samples — the
// quality-distribution instrument behind the per-algorithm willingness and
// group-size series. Safe for concurrent use; NaN observations are dropped.
type Moments struct {
	mu       sync.Mutex
	n        uint64
	m1, m2   float64
	min, max float64
}

// Observe folds one value into the moments.
func (m *Moments) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	m.mu.Lock()
	n1 := float64(m.n)
	m.n++
	n := float64(m.n)
	delta := v - m.m1
	deltaN := delta / n
	m.m1 += deltaN
	m.m2 += delta * deltaN * n1
	if m.n == 1 || v < m.min {
		m.min = v
	}
	if m.n == 1 || v > m.max {
		m.max = v
	}
	m.mu.Unlock()
}

// MomentsSnapshot is one consistent read of a Moments accumulator.
// StdDev is the population standard deviation (√(m2/n)), matching the
// convention of the experiment harness's stats package; it is 0 for fewer
// than two samples.
type MomentsSnapshot struct {
	Count        uint64
	Mean, StdDev float64
	Min, Max     float64
}

// Snapshot returns a consistent copy of the accumulated moments.
func (m *Moments) Snapshot() MomentsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := MomentsSnapshot{Count: m.n, Mean: m.m1, Min: m.min, Max: m.max}
	if m.n >= 2 && m.m2 > 0 {
		s.StdDev = math.Sqrt(m.m2 / float64(m.n))
	}
	return s
}

// DefLatencyBuckets are the default histogram boundaries for request and
// solve latencies, in seconds: 100µs to 60s on a rough 1-2.5-5 grid. They
// cover everything from a cached-region microsolve to a deadline-bounded
// 1M-node batch; NewHistogram copies the slice, so sharing it is safe.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-boundary histogram: bucket i counts observations
// ≤ bounds[i], with one implicit overflow bucket past the last bound —
// the Prometheus cumulative-histogram model, kept as per-bucket atomics so
// Observe is two atomic adds plus a binary search. The boundaries are
// fixed at construction; percentiles are estimated from the bucket counts
// (Snapshot().Percentile), which is what admission control wants: a p99
// that is cheap to read on every request, not exact to the nanosecond.
// Safe for concurrent use; NaN observations are dropped.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last = overflow (+Inf)
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a histogram over the given ascending, finite upper
// boundaries. The slice is copied. Panics on empty or unsorted bounds —
// boundaries are program constants, not runtime input.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket boundary")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("metrics: histogram boundaries must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("metrics: histogram boundaries must be strictly ascending")
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe folds one value into the histogram.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistogramSnapshot is one read of a histogram: per-bucket (non-cumulative)
// counts aligned with Bounds plus the overflow bucket. Under concurrent
// Observes the buckets are read individually, so a snapshot can be off by
// the handful of observations in flight while it was taken — scrape
// tolerance, never corruption.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // len(Bounds)+1; last = overflow
	Count  uint64
	Sum    float64
}

// Snapshot returns the current bucket counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Percentile estimates the p-th percentile (0–100, matching the stats
// package convention) by linear interpolation inside the bucket holding
// that rank. The first bucket interpolates from 0 when its boundary is
// positive; ranks landing in the overflow bucket report the last boundary
// (the histogram cannot see past it). Returns 0 for an empty histogram.
func (s HistogramSnapshot) Percentile(p float64) float64 {
	total := uint64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := p / 100 * float64(total)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(s.Counts)-1 {
			if i == len(s.Counts)-1 && i == len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			} else if s.Bounds[0] < 0 {
				lo = s.Bounds[0] // all-negative first bucket: no 0 floor
			}
			hi := s.Bounds[i]
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Sub returns the per-bucket difference s − base: the histogram of
// observations that happened between the two snapshots. Counts are clamped
// at zero (concurrent scrapes can be marginally out of order). Panics when
// the boundaries differ — differencing unrelated histograms is a bug.
func (s HistogramSnapshot) Sub(base HistogramSnapshot) HistogramSnapshot {
	if len(s.Bounds) != len(base.Bounds) {
		panic("metrics: Sub of histograms with different boundaries")
	}
	out := HistogramSnapshot{Bounds: s.Bounds, Counts: make([]uint64, len(s.Counts))}
	for i := range s.Counts {
		if s.Counts[i] > base.Counts[i] {
			out.Counts[i] = s.Counts[i] - base.Counts[i]
		}
		out.Count += out.Counts[i]
	}
	if s.Sum > base.Sum {
		out.Sum = s.Sum - base.Sum
	}
	return out
}
