package objective

import "waso/internal/graph"

// Willingness is the paper's objective (Eq. 1): each member contributes
// its interest score η, each in-group undirected edge contributes
// τ_out + τ_in. Its arrays alias the graph's own fused storage — no copy,
// no float re-derivation — so every solve through the objective seam is
// bit-identical to the pre-seam willingness code.
type Willingness struct{}

// Name implements Objective.
func (Willingness) Name() string { return "willingness" }

// Arrays implements Objective by aliasing the graph's fused CSR: the
// per-entry τ_out+τ_in weights and the per-node interest scores.
func (Willingness) Arrays(g *graph.Graph) Arrays {
	_, _, wSum, interest := g.FusedCSR()
	return Arrays{Edge: wSum, Node: interest}
}
