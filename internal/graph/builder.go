package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Builder accumulates nodes and edges and produces an immutable Graph.
// Duplicate edges are merged by summing their tightness contributions —
// the additive semantics the couple-merge scenario (§2.2) relies on.
type Builder struct {
	n        int
	interest []float64
	src      []NodeID
	dst      []NodeID
	tau      []float64 // directed weight src->dst
	err      error
}

// NewBuilder returns a Builder for a graph of n nodes with all interest
// scores zero.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n, interest: make([]float64, n)}
}

// N reports the node count.
func (b *Builder) N() int { return b.n }

// SetInterest assigns η_i. Records an error for out-of-range or non-finite
// input; the error surfaces at Build.
func (b *Builder) SetInterest(i NodeID, eta float64) {
	if b.err != nil {
		return
	}
	if int(i) < 0 || int(i) >= b.n {
		b.err = fmt.Errorf("graph: SetInterest node %d out of range [0,%d)", i, b.n)
		return
	}
	if math.IsNaN(eta) || math.IsInf(eta, 0) {
		b.err = fmt.Errorf("graph: SetInterest(%d) with non-finite score", i)
		return
	}
	b.interest[i] = eta
}

// AddEdge adds the undirected edge {i, j} with directed tightness
// τ_{i,j} = tauIJ and τ_{j,i} = tauJI. Adding the same edge again sums the
// weights.
func (b *Builder) AddEdge(i, j NodeID, tauIJ, tauJI float64) {
	b.AddArc(i, j, tauIJ)
	b.AddArc(j, i, tauJI)
}

// AddEdgeSym adds {i, j} with symmetric tightness τ on both directions.
func (b *Builder) AddEdgeSym(i, j NodeID, tau float64) {
	b.AddEdge(i, j, tau, tau)
}

// AddArc records the single directed tightness contribution τ_{i,j}. The
// reverse direction defaults to 0 unless also added. Both directions of an
// edge exist in the built graph as soon as either arc is added.
func (b *Builder) AddArc(i, j NodeID, tau float64) {
	if b.err != nil {
		return
	}
	if int(i) < 0 || int(i) >= b.n || int(j) < 0 || int(j) >= b.n {
		b.err = fmt.Errorf("graph: AddArc(%d,%d) out of range [0,%d)", i, j, b.n)
		return
	}
	if i == j {
		b.err = fmt.Errorf("graph: self-loop at node %d", i)
		return
	}
	if math.IsNaN(tau) || math.IsInf(tau, 0) {
		b.err = fmt.Errorf("graph: AddArc(%d,%d) with non-finite tightness", i, j)
		return
	}
	b.src = append(b.src, i)
	b.dst = append(b.dst, j)
	b.tau = append(b.tau, tau)
}

// Build assembles the CSR graph. Returns the first recorded error, if any.
//
// Each arc is placed twice, as an out-entry in its tail's row and an
// in-entry in its head's row, by a counting sort that keeps arc order
// within a row. A stable sort of each row by neighbour then brings the
// repeats of an edge together, still in arc order, so the sums below add
// repeated arcs in the order they were recorded, starting from +0.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	type half struct {
		nbr NodeID
		out bool // τ_{row,nbr} when set, else τ_{nbr,row}
		tau float64
	}
	start := make([]int64, b.n+1)
	for p := range b.src {
		start[b.src[p]+1]++
		start[b.dst[p]+1]++
	}
	for i := 1; i <= b.n; i++ {
		start[i] += start[i-1]
	}
	halves := make([]half, start[b.n])
	cursor := append([]int64(nil), start[:b.n]...)
	for p, i := range b.src {
		j, t := b.dst[p], b.tau[p]
		halves[cursor[i]] = half{j, true, t}
		cursor[i]++
		halves[cursor[j]] = half{i, false, t}
		cursor[j]++
	}
	off := make([]int64, b.n+1)
	for i := 0; i < b.n; i++ {
		row := halves[start[i]:start[i+1]]
		slices.SortStableFunc(row, func(x, y half) int { return cmp.Compare(x.nbr, y.nbr) })
		distinct := int64(0)
		for q := range row {
			if q == 0 || row[q].nbr != row[q-1].nbr {
				distinct++
			}
		}
		off[i+1] = off[i] + distinct
	}
	nbr := make([]NodeID, off[b.n])
	wOut := make([]float64, off[b.n])
	wIn := make([]float64, off[b.n])
	for i := 0; i < b.n; i++ {
		p := off[i] - 1
		for q, h := range halves[start[i]:start[i+1]] {
			if q == 0 || h.nbr != nbr[p] {
				p++
				nbr[p] = h.nbr
			}
			if h.out {
				wOut[p] += h.tau
			} else {
				wIn[p] += h.tau
			}
		}
	}
	g := &Graph{
		interest: append([]float64(nil), b.interest...),
		off:      off,
		nbr:      nbr,
		wOut:     wOut,
		wIn:      wIn,
	}
	g.fuse()
	return g, nil
}

// FromEdgeList builds a symmetric-weight graph directly from an edge list;
// convenience for tests and generators.
func FromEdgeList(n int, interest []float64, edges [][2]NodeID, tau []float64) (*Graph, error) {
	b := NewBuilder(n)
	for i, eta := range interest {
		b.SetInterest(NodeID(i), eta)
	}
	for p, e := range edges {
		t := 1.0
		if tau != nil {
			t = tau[p]
		}
		b.AddEdgeSym(e[0], e[1], t)
	}
	return b.Build()
}
