package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// validateByLookup is the reference Validate is checked against: the
// decoder's acceptance checks as they stood before the cursor sweep.
// Offsets must be monotone, and every adjacency entry's mirror is found by
// a binary search (Tau) in the neighbor's row, O(nnz log deg) in all.
func validateByLookup(g *Graph) error {
	n := NodeID(g.N())
	if len(g.off) != g.N()+1 || g.off[0] != 0 || g.off[g.N()] != int64(len(g.nbr)) {
		return fmt.Errorf("graph: malformed offsets")
	}
	for i := 1; i < len(g.off); i++ {
		if g.off[i] < g.off[i-1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", i-1)
		}
	}
	if len(g.wOut) != len(g.nbr) || len(g.wIn) != len(g.nbr) {
		return fmt.Errorf("graph: weight arrays mismatch adjacency")
	}
	for _, eta := range g.interest {
		if math.IsNaN(eta) || math.IsInf(eta, 0) {
			return fmt.Errorf("graph: non-finite interest score")
		}
	}
	for i := NodeID(0); i < n; i++ {
		nbrs, tauOut, tauIn := g.Edges(i)
		for p, u := range nbrs {
			if u < 0 || u >= n {
				return fmt.Errorf("graph: neighbor %d of node %d out of range", u, i)
			}
			if u == i {
				return fmt.Errorf("graph: self-loop at node %d", i)
			}
			if p > 0 && nbrs[p-1] >= u {
				return fmt.Errorf("graph: adjacency of node %d not sorted/unique", i)
			}
			if math.IsNaN(tauOut[p]) || math.IsInf(tauOut[p], 0) || math.IsNaN(tauIn[p]) || math.IsInf(tauIn[p], 0) {
				return fmt.Errorf("graph: non-finite tightness on edge {%d,%d}", i, u)
			}
			ro, ri, ok := g.Tau(u, i)
			if !ok {
				return fmt.Errorf("graph: edge {%d,%d} not mirrored", i, u)
			}
			if ro != tauIn[p] || ri != tauOut[p] {
				return fmt.Errorf("graph: weights of edge {%d,%d} not mirrored", i, u)
			}
		}
	}
	return nil
}

// corruptions enumerates systematic damage to g's arrays, each applied to
// a fresh copy: every adjacency entry dropped or duplicated (offsets fixed
// up) or swapped with the next entry, every weight re-written on one side
// or on both, every row boundary moved by ±1, every neighbor id re-written
// to each id in [-1, n], and NaN/±Inf written into every score. The first
// case is g unchanged. Some cases leave a valid graph: a weight or id
// re-written to its own value, a weight re-written to -0 where its mirror
// holds 0 (equal under ==), a mirrored pair re-weighted together with a
// finite value.
func corruptions(g *Graph, visit func(name string, c *Graph)) {
	clone := func() *Graph {
		return &Graph{
			interest: slices.Clone(g.interest),
			off:      slices.Clone(g.off),
			nbr:      slices.Clone(g.nbr),
			wOut:     slices.Clone(g.wOut),
			wIn:      slices.Clone(g.wIn),
		}
	}
	visit("unchanged", clone())
	n := g.N()
	nnz := int64(len(g.nbr))
	// shiftOffsets moves every row boundary above entry p by d.
	shiftOffsets := func(c *Graph, p, d int64) {
		for j := range c.off {
			if c.off[j] > p {
				c.off[j] += d
			}
		}
	}
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	weights := append([]float64{0, math.Copysign(0, -1), 0.5, 1, 2}, nonFinite...)
	for p := int64(0); p < nnz; p++ {
		c := clone()
		c.nbr = slices.Delete(c.nbr, int(p), int(p+1))
		c.wOut = slices.Delete(c.wOut, int(p), int(p+1))
		c.wIn = slices.Delete(c.wIn, int(p), int(p+1))
		shiftOffsets(c, p, -1)
		visit(fmt.Sprintf("drop %d", p), c)

		c = clone()
		c.nbr = slices.Insert(c.nbr, int(p+1), c.nbr[p])
		c.wOut = slices.Insert(c.wOut, int(p+1), c.wOut[p])
		c.wIn = slices.Insert(c.wIn, int(p+1), c.wIn[p])
		shiftOffsets(c, p, 1)
		visit(fmt.Sprintf("duplicate %d", p), c)

		for _, w := range weights {
			c = clone()
			c.wOut[p] = w
			visit(fmt.Sprintf("wOut[%d]=%v", p, w), c)
			c = clone()
			c.wIn[p] = w
			visit(fmt.Sprintf("wIn[%d]=%v", p, w), c)
		}
		// Re-weight both sides of the edge: entry p and its mirror.
		i := NodeID(0)
		for g.off[i+1] <= p {
			i++
		}
		u := g.nbr[p]
		if q := slices.Index(g.Neighbors(u), i); q >= 0 {
			for _, w := range weights {
				c = clone()
				c.wOut[p], c.wIn[g.off[u]+int64(q)] = w, w
				visit(fmt.Sprintf("edge {%d,%d} out=%v", i, u, w), c)
			}
		}
		if p+1 < nnz {
			c = clone()
			c.nbr[p], c.nbr[p+1] = c.nbr[p+1], c.nbr[p]
			c.wOut[p], c.wOut[p+1] = c.wOut[p+1], c.wOut[p]
			c.wIn[p], c.wIn[p+1] = c.wIn[p+1], c.wIn[p]
			visit(fmt.Sprintf("swap %d,%d", p, p+1), c)
		}
		for v := NodeID(-1); int(v) <= n; v++ {
			c = clone()
			c.nbr[p] = v
			visit(fmt.Sprintf("nbr[%d]=%d", p, v), c)
		}
	}
	for k := 0; k <= n; k++ {
		for _, d := range []int64{-1, 1} {
			c := clone()
			c.off[k] += d
			visit(fmt.Sprintf("off[%d]%+d", k, d), c)
		}
	}
	for i := 0; i < n; i++ {
		for _, w := range nonFinite {
			c := clone()
			c.interest[i] = w
			visit(fmt.Sprintf("interest[%d]=%v", i, w), c)
		}
	}
}

// TestValidateMatchesLookup is the differential test of the cursor sweep:
// over random graphs of at most 8 nodes and every corruption of each,
// Validate must accept exactly what validateByLookup accepts.
func TestValidateMatchesLookup(t *testing.T) {
	const trials = 300
	rng := rand.New(rand.NewSource(7))
	cases, accepted := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := trial % 9
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			b.SetInterest(NodeID(i), float64(rng.Intn(4))/2)
		}
		// Every third graph has unit weights: a dropped entry whose row's
		// cursor runs on into the next row then meets an entry with the
		// weights it expects, a case only the row-end check rejects.
		tau := func() float64 { return float64(rng.Intn(5)) / 2 }
		if trial%3 == 0 {
			tau = func() float64 { return 1 }
		}
		density := rng.Float64()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < density {
					b.AddEdge(NodeID(i), NodeID(j), tau(), tau())
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		corruptions(g, func(name string, c *Graph) {
			want, got := validateByLookup(c), c.Validate()
			if (want == nil) != (got == nil) {
				t.Fatalf("trial %d (n=%d) %s: lookup says %v, Validate says %v", trial, n, name, want, got)
			}
			cases++
			if got == nil {
				accepted++
			}
		})
	}
	t.Logf("%d cases, %d accepted", cases, accepted)
	// Both outcomes must be well represented beyond the unchanged graphs.
	if accepted < 2*trials || cases-accepted < cases/2 {
		t.Fatalf("%d cases with %d accepted: corruptions too weak or too strong to compare", cases, accepted)
	}
}
