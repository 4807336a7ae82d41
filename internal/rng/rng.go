// Package rng provides deterministic, splittable random number streams for
// the randomized WASO solvers and the synthetic dataset generators.
//
// Every randomized component in this repository draws from a Stream so that
// a run is fully reproducible from a single root seed: solvers derive one
// independent sub-stream per (start node, stage) pair, which also makes
// parallel execution schedule-independent — the same seed produces the same
// samples regardless of how many workers process the start nodes.
package rng

import (
	"math"
	"math/rand/v2"
)

// Stream is a deterministic pseudo-random stream backed by PCG. The zero
// value is not usable; construct with New or Split.
type Stream struct {
	*rand.Rand
	seed uint64
}

// New returns a Stream deterministically derived from seed.
func New(seed uint64) *Stream {
	s1 := splitmix64(seed)
	s2 := splitmix64(s1)
	return &Stream{Rand: rand.New(rand.NewPCG(s1, s2)), seed: seed}
}

// Seed reports the seed this stream was created from.
func (s *Stream) Seed() uint64 { return s.seed }

// Split returns a new Stream whose sequence is independent of s and of any
// other label. Splitting does not consume state from s, so the derived
// stream depends only on (s.seed, label) — the property that makes parallel
// solver runs deterministic irrespective of scheduling.
func (s *Stream) Split(label uint64) *Stream {
	return New(splitmix64(s.seed ^ 0x9e3779b97f4a7c15*label + 0x632be59bd9b4e019))
}

// SplitN is shorthand for Split with two labels folded together, used for
// (start node, stage) stream derivation.
func (s *Stream) SplitN(a, b uint64) *Stream {
	return s.Split(splitmix64(a)*0x2545f4914f6cdd1d + b)
}

// splitmix64 is the SplitMix64 mixing function (Steele et al.), a bijection
// on uint64 with good avalanche behaviour, used only for seed derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PowerLaw draws from a continuous power-law (Pareto) distribution with
// density p(x) ∝ x^(-beta) for x ≥ xmin. The paper assigns interest scores
// from a power law with exponent beta = 2.5 following Clauset et al. [5].
// beta must be > 1 and xmin > 0.
func (s *Stream) PowerLaw(beta, xmin float64) float64 {
	if beta <= 1 {
		panic("rng: PowerLaw requires beta > 1")
	}
	if xmin <= 0 {
		panic("rng: PowerLaw requires xmin > 0")
	}
	u := s.Float64()
	// Inverse-CDF sampling: F(x) = 1 - (x/xmin)^(1-beta).
	return xmin * math.Pow(1-u, -1/(beta-1))
}
