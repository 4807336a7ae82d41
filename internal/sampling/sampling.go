// Package sampling provides weighted random-selection structures for the
// WASO solvers.
//
// CBAS expands a partial solution by picking a frontier node uniformly at
// random; CBAS-ND picks proportionally to an adapted probability vector;
// RGreedy picks proportionally to the willingness of the resulting group.
// All three reduce to "draw an index with probability ∝ weight[i]" over a
// frontier that only grows within one sample. Two implementations are
// provided with different trade-offs:
//
//   - linear prefix scan: O(n) per draw, zero setup, cache-friendly — wins
//     on the small frontiers typical of sparse graphs;
//   - Fenwick (binary indexed) tree: O(log n) draw and update — wins once
//     the frontier exceeds a few hundred nodes (dense graphs, large k).
//
// The crossover is measured by BenchmarkSamplerCrossover at the repo root.
package sampling

import (
	"errors"
	"math"

	"waso/internal/rng"
)

// ErrZeroTotal is returned when a draw is requested from an empty or
// all-zero weight distribution.
var ErrZeroTotal = errors.New("sampling: total weight is zero")

// WeightedIndex draws one index with probability weights[i]/Σweights via a
// linear prefix scan. Negative and NaN weights are treated as zero.
// Returns -1 if the total weight is zero.
func WeightedIndex(r *rng.Stream, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 && !math.IsNaN(w) {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	u := r.Float64() * total
	acc := 0.0
	last := -1
	for i, w := range weights {
		if w <= 0 || math.IsNaN(w) {
			continue
		}
		acc += w
		last = i
		if u < acc {
			return i
		}
	}
	return last // floating-point slack: u landed past the final prefix sum
}

// Fenwick is a dynamic weighted sampler over indexes [0, n) supporting
// O(log n) weight updates and O(log n) proportional draws.
type Fenwick struct {
	tree []float64 // 1-based BIT of weights
	w    []float64 // current weight per index
}

// NewFenwick returns a Fenwick sampler with n zero-weight slots.
func NewFenwick(n int) *Fenwick {
	return &Fenwick{tree: make([]float64, n+1), w: make([]float64, n)}
}

// Len reports the slot count.
func (f *Fenwick) Len() int { return len(f.w) }

// Weight returns the current weight of index i.
func (f *Fenwick) Weight(i int) float64 { return f.w[i] }

// Set assigns weight w to index i. Negative or NaN weights are clamped to 0.
func (f *Fenwick) Set(i int, w float64) {
	if w < 0 || math.IsNaN(w) {
		w = 0
	}
	delta := w - f.w[i]
	if delta == 0 {
		return
	}
	f.w[i] = w
	for j := i + 1; j <= len(f.w); j += j & (-j) {
		f.tree[j] += delta
	}
}

// Reset zeroes the weights of slots [0, n) in O(n + log Len) total — the
// bulk form of calling Set(i, 0) for every live slot, which would cost
// O(n log Len). It requires that every slot ≥ n already has zero weight
// (the append-only discipline of the solver workspaces: slots are assigned
// densely from 0, so after a growth only the first n slots can be live).
// Under that precondition every tree node sums only cleared weights, so the
// nodes to zero are exactly [1, n] plus the tail of the update path of slot
// n−1.
func (f *Fenwick) Reset(n int) {
	if n > len(f.w) {
		n = len(f.w)
	}
	if n <= 0 {
		return
	}
	for i := 0; i < n; i++ {
		f.w[i] = 0
	}
	for j := 1; j <= n; j++ {
		f.tree[j] = 0
	}
	// Tree nodes above n whose range reaches below n: the continuation of
	// the BIT update path of index n−1 (j = n, then j += lowbit(j)).
	for j := n + n&(-n); j <= len(f.w); j += j & (-j) {
		f.tree[j] = 0
	}
}

// Total returns the sum of all weights.
func (f *Fenwick) Total() float64 {
	total := 0.0
	for j := len(f.w); j > 0; j -= j & (-j) {
		total += f.tree[j]
	}
	return total
}

// Sample draws an index with probability Weight(i)/Total.
func (f *Fenwick) Sample(r *rng.Stream) (int, error) {
	total := f.Total()
	if total <= 0 {
		return -1, ErrZeroTotal
	}
	u := r.Float64() * total
	// Descend the implicit tree: find smallest prefix whose cumulative
	// weight exceeds u.
	idx := 0
	mask := 1
	for mask<<1 <= len(f.w) {
		mask <<= 1
	}
	for ; mask > 0; mask >>= 1 {
		next := idx + mask
		if next <= len(f.w) && f.tree[next] <= u {
			u -= f.tree[next]
			idx = next
		}
	}
	if idx >= len(f.w) {
		idx = len(f.w) - 1
	}
	// idx is now the count of full prefixes passed; the sampled index is idx
	// itself (0-based) — but it may carry zero weight due to FP slack; walk
	// forward to the next positive weight.
	for idx < len(f.w) && f.w[idx] <= 0 {
		idx++
	}
	if idx >= len(f.w) {
		for idx = len(f.w) - 1; idx >= 0 && f.w[idx] <= 0; idx-- {
		}
		if idx < 0 {
			return -1, ErrZeroTotal
		}
	}
	return idx, nil
}
