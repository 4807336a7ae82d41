// Package bitset implements a dense bitset used by the WASO solvers for
// O(1) membership tests on partial solutions and expansion frontiers.
//
// The solvers build thousands of random k-node samples per run; a bitset
// plus a sparse reset (ClearList clears only the bits that were set) keeps
// per-sample overhead at O(k + frontier) instead of O(n).
package bitset

// Set is a fixed-capacity bitset over [0, n).
type Set struct {
	words []uint64
}

// New returns a Set with capacity n bits, all clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+63)/64)}
}

// Add sets bit i.
func (s *Set) Add(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Remove clears bit i.
func (s *Set) Remove(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// ClearList clears exactly the listed bits — O(len(list)); the sparse-reset
// path the solvers use between samples.
func (s *Set) ClearList(list []int32) {
	for _, i := range list {
		s.Remove(int(i))
	}
}
