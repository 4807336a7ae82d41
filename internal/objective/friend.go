package objective

import (
	"math"

	"waso/internal/graph"
)

// Friend scores a group by friend-making likelihood in the spirit of
// "Maximizing Friend-Making Likelihood for Social Activity Organization"
// (arXiv 1502.06682): raw tightness and interest scores are squashed into
// probabilities, and an in-group edge contributes the probability that at
// least one of its two directed acquaintance attempts succeeds.
//
//	p(t)      = 0.5 + t / (2 (1 + |t|))          (rational sigmoid, ∈ (0,1))
//	Edge{u,v} = p(τ_uv) + p(τ_vu) − p(τ_uv)·p(τ_vu)   (noisy-or)
//	Node[v]   = p(η_v)
//
// The rational sigmoid needs no exp, is exact under FP commutativity
// (Edge is bit-symmetric per undirected edge), maps any finite τ into
// (0,1), and is monotone — so likelier friendships still score higher.
// Edge values are positive and Node values finite, satisfying the
// fused-additive bound contract, and the same k-group connectivity shape
// applies unchanged.
type Friend struct{}

// Name implements Objective.
func (Friend) Name() string { return "friend" }

// squash is the rational sigmoid p(t) = 0.5 + t/(2(1+|t|)).
func squash(t float64) float64 { return 0.5 + t/(2*(1+math.Abs(t))) }

// Arrays implements Objective: per-entry noisy-or of the two directional
// acquaintance probabilities, per-node squashed interest.
func (Friend) Arrays(g *graph.Graph) Arrays {
	off, nbr, _, _ := g.FusedCSR()
	node := make([]float64, g.N())
	edge := make([]float64, len(nbr))
	for i := range node {
		v := graph.NodeID(i)
		node[i] = squash(g.Interest(v))
		_, tauOut, tauIn := g.Edges(v)
		base := off[i]
		for p := range tauOut {
			a, b := squash(tauOut[p]), squash(tauIn[p])
			edge[base+int64(p)] = a + b - a*b
		}
	}
	return Arrays{Edge: edge, Node: node}
}
