package graph

import (
	"slices"

	"waso/internal/bitset"
)

// A Region is the compact search instance for one start node: the induced
// subgraph of the ≤radius-hop ball around the start, remapped to dense
// local ids in a small contiguous CSR that fits in cache.
//
// Why this is lossless for WASO: a connected group of size ≤ k containing
// the start can only contain nodes within (k−1) hops of it (§3.1 of Shuai
// et al., PVLDB 2013 — every member is reachable from the start inside the
// group). More precisely, every solver growth in this repo draws its next
// node from a frontier built while |S| = j < k, and every frontier node at
// that moment is within j ≤ k−1 hops of the start. A Region extracted with
// radius = k−1 therefore contains every node any growth can ever draw or
// add, and every edge between such nodes — growths on the Region are
// bit-identical to growths on the whole graph.
//
// The local id order is the ascending global id order (a monotone remap),
// so sorted adjacency, greedy (Δ, id) tie-breaks, frontier append order
// and canonical solution order all translate 1:1 between the two id
// spaces. The adjacency carries one opaque fused gain per entry — the
// objective-provided number the growth loops consume (τ_out+τ_in for
// willingness) — plus one per-node gain; the region itself knows nothing
// about what they mean.
type Region struct {
	localStart NodeID // dense local id of the start node

	toGlobal []NodeID  // local id -> global id, strictly ascending
	off      []int64   // local CSR offsets, len N()+1
	nbr      []NodeID  // local neighbor ids, sorted per node
	w        []float64 // fused per-entry gain slab (objective-defined)
	node     []float64 // per-node gain slab (objective-defined)
}

// N returns the number of nodes in the region.
func (r *Region) N() int { return len(r.node) }

// M returns the number of undirected edges inside the region.
func (r *Region) M() int { return len(r.nbr) / 2 }

// LocalStart returns the start node's dense local id.
func (r *Region) LocalStart() NodeID { return r.localStart }

// GlobalIDs returns the local→global id mapping in local id order (which
// is also ascending global id order). The slice aliases internal storage.
func (r *Region) GlobalIDs() []NodeID { return r.toGlobal }

// CSR exposes the region's raw arrays in the same substrate shape as
// Graph.FusedCSR, carrying whatever fused slabs the region was extracted
// with. All slices alias internal storage.
func (r *Region) CSR() (off []int64, nbr []NodeID, edge, node []float64) {
	return r.off, r.nbr, r.w, r.node
}

// RegionBuilder extracts Regions from one graph, reusing its O(N) scratch
// (the global→local id map) across extractions so each Extract costs only
// O(ball) beyond the first call. Not safe for concurrent use.
type RegionBuilder struct {
	g       *Graph
	localOf []int32 // global id -> local id; -1 when outside the current ball
	queue   []NodeID
}

// NewRegionBuilder returns a builder for g.
func NewRegionBuilder(g *Graph) *RegionBuilder {
	localOf := make([]int32, g.N())
	for i := range localOf {
		localOf[i] = -1
	}
	return &RegionBuilder{g: g, localOf: localOf}
}

// Extract builds the Region of the ≤radius-hop ball around start,
// carrying the caller's fused gain slabs: edge is one value per adjacency
// entry of the builder's graph (FusedCSR order, len 2M), node one value
// per node. It returns nil when the ball would exceed maxNodes — the
// caller's signal to fall back to whole-graph solving for this start.
// start must be a valid node of the builder's graph.
func (rb *RegionBuilder) Extract(start NodeID, radius, maxNodes int, edge, node []float64) *Region {
	g := rb.g
	if maxNodes < 1 {
		return nil
	}
	// Level-by-level BFS; nodes at depth == radius are leaves.
	q := rb.queue[:0]
	q = append(q, start)
	rb.localOf[start] = 0 // visited marker; real local ids assigned below
	levelEnd, depth := 1, 0
	overflow := false
bfs:
	for head := 0; head < len(q); head++ {
		if head == levelEnd {
			depth++
			levelEnd = len(q)
		}
		if depth >= radius {
			break
		}
		for _, u := range g.Neighbors(q[head]) {
			if rb.localOf[u] != -1 {
				continue
			}
			if len(q) >= maxNodes {
				overflow = true
				break bfs
			}
			rb.localOf[u] = 0
			q = append(q, u)
		}
	}
	rb.queue = q // keep the grown capacity for the next extraction
	if overflow {
		for _, v := range q {
			rb.localOf[v] = -1
		}
		return nil
	}

	// Monotone remap: local ids in ascending global id order.
	ball := make([]NodeID, len(q))
	copy(ball, q)
	slices.Sort(ball)
	for i, v := range ball {
		rb.localOf[v] = int32(i)
	}

	off := make([]int64, len(ball)+1)
	for i, v := range ball {
		kept := 0
		for _, u := range g.Neighbors(v) {
			if rb.localOf[u] >= 0 {
				kept++
			}
		}
		off[i+1] = off[i] + int64(kept)
	}
	nnz := off[len(ball)]
	nbr := make([]NodeID, nnz)
	w := make([]float64, nnz)
	rnode := make([]float64, len(ball))
	for i, v := range ball {
		rnode[i] = node[v]
		p := off[i]
		lo := g.off[v]
		for gp, u := range g.Neighbors(v) {
			lu := rb.localOf[u]
			if lu < 0 {
				continue
			}
			nbr[p] = NodeID(lu)
			w[p] = edge[lo+int64(gp)]
			p++
		}
	}
	r := &Region{
		localStart: NodeID(rb.localOf[start]),
		toGlobal:   ball,
		off:        off,
		nbr:        nbr,
		w:          w,
		node:       rnode,
	}
	for _, v := range ball {
		rb.localOf[v] = -1
	}
	return r
}

// HopDistances runs a multi-source BFS from sources and returns the hop
// distance of every node within maxDepth hops of any source (sources
// themselves at distance 0). Out-of-range source ids are ignored, so
// callers can pass touched-node sets straight across a mutation that
// removed or appended nodes. The serving layer uses this to decide which
// cached (start, radius) region balls a mutation's touched set reaches:
// a ball is stale iff dist(start) ≤ radius.
func (g *Graph) HopDistances(sources []NodeID, maxDepth int) map[NodeID]int {
	seen := bitset.New(g.N())
	q := make([]NodeID, 0, len(sources))
	for _, s := range sources {
		if int(s) >= 0 && int(s) < g.N() && !seen.Contains(int(s)) {
			seen.Add(int(s))
			q = append(q, s)
		}
	}
	// Level-by-level BFS: the nodes at depth d are q[ends[d-1]:ends[d]].
	ends := []int{len(q)}
	for head := 0; head < len(q); head++ {
		if head == ends[len(ends)-1] {
			ends = append(ends, len(q))
		}
		if len(ends)-1 >= maxDepth { // q[head] sits at depth len(ends)-1
			break
		}
		for _, u := range g.Neighbors(q[head]) {
			if !seen.Contains(int(u)) {
				seen.Add(int(u))
				q = append(q, u)
			}
		}
	}
	dist := make(map[NodeID]int, len(q))
	start := 0
	for depth, end := range ends {
		for _, v := range q[start:end] {
			dist[v] = depth
		}
		start = end
	}
	return dist
}
