package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// twoComponentGraph: a path 0—1—2—3—4—5 with asymmetric weights plus a
// separate edge {6,7}; node 8 is isolated.
func twoComponentGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(9)
	for i := 0; i < 9; i++ {
		b.SetInterest(NodeID(i), float64(i)+0.5)
	}
	for i := 0; i < 5; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1), float64(i+1), 0.25*float64(i+1))
	}
	b.AddEdgeSym(6, 7, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkRegionMatchesSubgraph verifies a region against the independently
// built induced subgraph of the same node set (Subgraph uses the same
// monotone remap).
func checkRegionMatchesSubgraph(t *testing.T, g *Graph, r *Region, start NodeID, wantBall []NodeID) {
	t.Helper()
	if !slices.Equal(r.GlobalIDs(), wantBall) {
		t.Fatalf("region ball = %v, want %v", r.GlobalIDs(), wantBall)
	}
	if !slices.IsSorted(r.GlobalIDs()) {
		t.Fatalf("region ids not ascending: %v", r.GlobalIDs())
	}
	if r.GlobalIDs()[r.LocalStart()] != start {
		t.Fatalf("localStart %d maps to %d, want start %d",
			r.LocalStart(), r.GlobalIDs()[r.LocalStart()], start)
	}
	sub, mapping := g.Subgraph(wantBall)
	if !slices.Equal(mapping, r.GlobalIDs()) {
		t.Fatalf("subgraph mapping %v != region mapping %v", mapping, r.GlobalIDs())
	}
	if r.N() != sub.N() || r.M() != sub.M() {
		t.Fatalf("region n=%d m=%d, subgraph n=%d m=%d", r.N(), r.M(), sub.N(), sub.M())
	}
	off, nbr, wSum, eta := r.CSR()
	for i := 0; i < r.N(); i++ {
		if eta[i] != sub.Interest(NodeID(i)) {
			t.Errorf("node %d: eta %v != %v", i, eta[i], sub.Interest(NodeID(i)))
		}
		rn := nbr[off[i]:off[i+1]]
		rw := wSum[off[i]:off[i+1]]
		sn, sw := sub.FusedEdges(NodeID(i))
		if !slices.Equal(rn, sn) {
			t.Fatalf("node %d: region nbrs %v != subgraph nbrs %v", i, rn, sn)
		}
		if !slices.Equal(rw, sw) {
			t.Fatalf("node %d: region wSum %v != subgraph wSum %v", i, rw, sw)
		}
	}
}

// extract runs the slab-parameterized Extract with the graph's own fused
// willingness slabs — the configuration every region test exercises.
func extract(rb *RegionBuilder, start NodeID, radius, maxNodes int) *Region {
	return rb.Extract(start, radius, maxNodes, rb.g.wSum, rb.g.interest)
}

func TestRegionExtraction(t *testing.T) {
	g := twoComponentGraph(t)
	rb := NewRegionBuilder(g)

	// Ball strictly smaller than the component: radius 2 around node 2.
	r := extract(rb, 2, 2, g.N())
	checkRegionMatchesSubgraph(t, g, r, 2, []NodeID{0, 1, 2, 3, 4})

	// Ball equal to the component: radius ≥ diameter saturates at the
	// component, never spills into other components.
	r = extract(rb, 0, 5, g.N())
	checkRegionMatchesSubgraph(t, g, r, 0, []NodeID{0, 1, 2, 3, 4, 5})
	r = extract(rb, 0, 50, g.N())
	checkRegionMatchesSubgraph(t, g, r, 0, []NodeID{0, 1, 2, 3, 4, 5})

	// Radius far larger than a small component: the ball is the component.
	r = extract(rb, 7, 50, g.N())
	checkRegionMatchesSubgraph(t, g, r, 7, []NodeID{6, 7})

	// Radius 0: the start alone.
	r = extract(rb, 3, 0, g.N())
	checkRegionMatchesSubgraph(t, g, r, 3, []NodeID{3})

	// Isolated node.
	r = extract(rb, 8, 10, g.N())
	checkRegionMatchesSubgraph(t, g, r, 8, []NodeID{8})
}

// TestRegionCap: a ball that would exceed maxNodes yields nil, and the
// builder's scratch stays clean for subsequent extractions.
func TestRegionCap(t *testing.T) {
	g := twoComponentGraph(t)
	rb := NewRegionBuilder(g)
	if r := extract(rb, 2, 2, 3); r != nil {
		t.Fatalf("cap 3 extraction returned %v, want nil", r.GlobalIDs())
	}
	if r := extract(rb, 2, 2, 0); r != nil {
		t.Fatalf("cap 0 extraction returned %v, want nil", r.GlobalIDs())
	}
	// Scratch must be fully reset: the same extraction with room succeeds
	// and sees the full ball.
	r := extract(rb, 2, 2, 5)
	checkRegionMatchesSubgraph(t, g, r, 2, []NodeID{0, 1, 2, 3, 4})
	// An exact-size cap is not an overflow.
	r = extract(rb, 7, 50, 2)
	checkRegionMatchesSubgraph(t, g, r, 7, []NodeID{6, 7})
}

// TestRegionRandomized cross-checks Extract against a straightforward
// reference BFS + Subgraph on random graphs.
func TestRegionRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			b.SetInterest(NodeID(i), rng.Float64())
		}
		for e := 0; e < n; e++ {
			i, j := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if i == j {
				continue
			}
			b.AddEdge(i, j, rng.Float64(), rng.Float64())
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		rb := NewRegionBuilder(g)
		for trial2 := 0; trial2 < 5; trial2++ {
			start := NodeID(rng.Intn(n))
			radius := rng.Intn(5)
			want := referenceBall(g, start, radius)
			r := extract(rb, start, radius, g.N())
			checkRegionMatchesSubgraph(t, g, r, start, want)
		}
	}
}

// referenceBall is the slow-but-obvious ≤radius-hop ball, sorted.
func referenceBall(g *Graph, start NodeID, radius int) []NodeID {
	dist := map[NodeID]int{start: 0}
	queue := []NodeID{start}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if dist[v] == radius {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if _, seen := dist[u]; !seen {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	out := make([]NodeID, 0, len(dist))
	for v := range dist {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// TestFusedEdges: the fused weight view is exactly τ_out+τ_in, on built
// graphs and on regions.
func TestFusedEdges(t *testing.T) {
	g := twoComponentGraph(t)
	for i := NodeID(0); int(i) < g.N(); i++ {
		nbrs, tauOut, tauIn := g.Edges(i)
		fn, fw := g.FusedEdges(i)
		if !slices.Equal(nbrs, fn) {
			t.Fatalf("node %d: fused nbrs diverge", i)
		}
		for p := range nbrs {
			if want := tauOut[p] + tauIn[p]; fw[p] != want {
				t.Errorf("node %d nbr %d: fused %v, want %v", i, nbrs[p], fw[p], want)
			}
		}
	}
}
