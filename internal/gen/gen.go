// Package gen produces the synthetic social networks the paper evaluates
// on (§5): Erdős–Rényi random graphs and power-law graphs grown by
// preferential attachment, with the paper's one score model: power-law
// interest scores η and uniform social-tightness scores τ.
//
// All randomness derives from rng sub-streams labelled by role (structure,
// interest, tightness), so a generated instance is fully reproducible from
// (parameters, seed) and the η/τ draws are independent of the edge
// structure.
package gen

import (
	"fmt"
	"math"
	"slices"

	"waso/internal/bitset"
	"waso/internal/graph"
	"waso/internal/rng"
)

// Sub-stream labels for seed derivation.
const (
	streamStructure = iota
	streamInterest
	streamTightness
)

// The paper's score model (§5): interest η follows a power law with
// exponent 2.5 (Clauset et al.) above a floor of 0.1, and each directed
// side of an edge draws its tightness τ uniformly from [0, 1).
const (
	etaExponent = 2.5
	etaMin      = 0.1
)

// sampleEta assigns every node a power-law interest score.
func sampleEta(b *graph.Builder, root *rng.Stream) {
	eta := root.Split(streamInterest)
	for i := 0; i < b.N(); i++ {
		b.SetInterest(graph.NodeID(i), eta.PowerLaw(etaExponent, etaMin))
	}
}

// ErdosRenyi generates G(n, p): each of the n·(n−1)/2 node pairs is an
// edge independently with probability p. Pair enumeration uses geometric
// skipping, so generation costs O(n + m) rather than O(n²).
func ErdosRenyi(n int, p float64, seed uint64) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: ErdosRenyi with negative n %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("gen: ErdosRenyi probability %g outside [0,1]", p)
	}
	root := rng.New(seed)
	b := graph.NewBuilder(n)
	sampleEta(b, root)
	if p > 0 && n > 1 {
		structure := root.Split(streamStructure)
		tau := root.Split(streamTightness)
		cur := pairCursor{n: n, i: 0, j: 0} // j ≤ i means "before row i's first pair"
		for cur.advance(geometric(structure, p)) {
			b.AddEdge(graph.NodeID(cur.i), graph.NodeID(cur.j), tau.Float64(), tau.Float64())
		}
	}
	return b.Build()
}

// geometric draws a jump length ≥ 1 with P(len = ℓ) = p·(1−p)^(ℓ−1), the
// gap between successive successes of a Bernoulli(p) sequence.
func geometric(r *rng.Stream, p float64) int64 {
	if p >= 1 {
		return 1
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	g := math.Floor(math.Log(u) / math.Log(1-p))
	if g > 1e18 {
		return 1 << 60
	}
	return 1 + int64(g)
}

// pairCursor walks the pairs (i, j), i < j < n, in row-major order,
// supporting multi-step advances. Its zero position (0, 0) sits just
// before the first pair (0, 1).
type pairCursor struct {
	n    int
	i, j int
}

// advance moves the cursor forward by steps pairs; it reports false once
// the cursor walks off the final pair.
func (c *pairCursor) advance(steps int64) bool {
	for steps > 0 {
		if c.i >= c.n-1 {
			return false
		}
		left := int64(c.n - 1 - c.j) // pairs remaining in row i after column j
		if steps <= left {
			c.j += int(steps)
			return true
		}
		steps -= left
		c.i++
		c.j = c.i
	}
	return true
}

// PreferentialAttachment generates a Barabási–Albert power-law graph: it
// seeds a ring of m+1 nodes, then attaches each new node to m distinct
// existing nodes chosen with probability proportional to their degree.
// The resulting degree distribution follows a power law, matching the
// paper's "power-law graphs generated by [2]" setup.
func PreferentialAttachment(n, m int, seed uint64) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: PreferentialAttachment with negative n %d", n)
	}
	if m < 1 {
		return nil, fmt.Errorf("gen: PreferentialAttachment requires m ≥ 1, got %d", m)
	}
	root := rng.New(seed)
	b := graph.NewBuilder(n)
	sampleEta(b, root)
	structure := root.Split(streamStructure)
	tau := root.Split(streamTightness)
	addEdge := func(i, j graph.NodeID) {
		b.AddEdge(i, j, tau.Float64(), tau.Float64())
	}

	m0 := m + 1
	if m0 > n {
		m0 = n
	}
	// endpoints lists every edge endpoint once; drawing a uniform element
	// selects a node with probability ∝ degree. It is sized by the edges
	// added below: the seed ring, then m per later node. When m ≥ n−1 the
	// graph is the ring alone, whatever m asks for.
	ringEdges := max(m0-1, 0)
	if m0 > 2 {
		ringEdges++
	}
	endpoints := make([]graph.NodeID, 0, 2*(ringEdges+(n-m0)*m))
	for v := 1; v < m0; v++ {
		u := graph.NodeID(v - 1)
		addEdge(u, graph.NodeID(v))
		endpoints = append(endpoints, u, graph.NodeID(v))
	}
	if m0 > 2 { // close the seed ring so every seed node starts at degree 2
		addEdge(graph.NodeID(m0-1), 0)
		endpoints = append(endpoints, graph.NodeID(m0-1), 0)
	}

	// targets holds one node's m distinct picks and is reused across
	// nodes; chosen marks them and is cleared through targets, so each
	// node costs O(m) and allocates nothing. The capacity is capped at n:
	// the loop runs only when m < n−1.
	chosen := bitset.New(n)
	targets := make([]graph.NodeID, 0, min(m, n))
	for v := m0; v < n; v++ { // v ≥ m0 = m+1, so m distinct targets always exist
		targets = targets[:0]
		for len(targets) < m {
			u := endpoints[structure.IntN(len(endpoints))]
			if chosen.Contains(int(u)) {
				continue
			}
			chosen.Add(int(u))
			targets = append(targets, u)
		}
		chosen.ClearList(targets)
		// Attach in ascending target order, so the τ draw sequence is a
		// function of the chosen set, not of the order it was drawn in.
		slices.Sort(targets)
		for _, u := range targets {
			addEdge(graph.NodeID(v), u)
			endpoints = append(endpoints, graph.NodeID(v), u)
		}
	}
	return b.Build()
}
