// Package objective is the pluggable scoring layer between graph and
// solver. The graph stores topology and the raw per-node interest (η) and
// per-edge tightness (τ) scores; an Objective turns them into the two
// fused arrays the growth loops actually consume — one gain per node and
// one gain per adjacency entry. That is all an objective supplies: a Name
// and its Arrays.
//
// The contract is fused-additive: for an objective with arrays (Node,
// Edge), the marginal gain of adding v to a partial group S is
//
//	Δ(v | S) = Node[v] + Σ_{u ∈ S ∩ N(v)} Edge[p(v,u)]
//
// and the value of a group F is Σ_{v∈F} Node[v] plus Σ Edge over the
// edges inside F, each undirected edge counted once. Edge values must be
// symmetric per undirected edge (the entry at v for u bit-equals the
// entry at u for v), and Node values finite. Δ, the group value and the
// §3.1 start-node bound are therefore functions of the arrays alone, and
// a Binding computes all three (Delta, Value, Bound) the same way for
// every objective. The bound — Bound(v) = Node[v] + Σ incident max(Edge,
// 0) — is admissible (Δ(v|S) ≤ Bound(v) for every S) on every graph,
// negative τ included, so the solvers' shared-incumbent pruning and the
// CBAS phase-1 ranking carry over to every objective unchanged.
//
// The objectives form one fixed registry behind New/Names; "willingness"
// is the paper default and aliases the graph's own fused arrays, so
// solving it through the seam is bit-identical to the pre-seam code.
package objective

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"waso/internal/graph"
)

// Default names the objective a Request resolves to when it specifies
// none: the paper's willingness score (Eq. 1).
const Default = "willingness"

// Arrays is an objective's fused state over one graph: Node[i] is the
// standalone gain of node i, Edge[p] the extra gain when the adjacency
// entry p connects two group members. Edge is aligned with the graph's
// FusedCSR adjacency order (len == total adjacency entries, i.e. 2M) and
// must be symmetric per undirected edge; Bound counts its positive part.
// Node must be finite. Implementations may alias graph-internal storage
// (the willingness objective does) — callers treat both slices as
// read-only.
type Arrays struct {
	Edge []float64
	Node []float64
}

// Objective is one scoring semantics over a social graph. Implementations
// must be stateless values: all per-graph state lives in the Binding, and
// Arrays must be deterministic (the wasolint determinism analyzer checks
// its result path like solver code).
type Objective interface {
	// Name is the registry key and wire identifier.
	Name() string
	// Arrays builds the fused per-node / per-entry gain arrays for g.
	Arrays(g *graph.Graph) Arrays
}

// Binding is an objective evaluated over one graph: the graph's CSR
// topology plus the objective's fused arrays, in the exact substrate
// shape the solver workspaces consume. Bindings are immutable after Bind
// and safe for concurrent use.
type Binding struct {
	obj  Objective
	g    *graph.Graph
	off  []int64
	nbr  []graph.NodeID
	edge []float64
	node []float64
}

// Bind evaluates obj's arrays over g. Cost is the objective's Arrays
// (O(n+m) at worst; free for willingness, which aliases graph storage).
// Panics if the objective returns misshapen arrays — a programmer error
// in the objective, not an input error.
func Bind(obj Objective, g *graph.Graph) *Binding {
	a := obj.Arrays(g)
	off, nbr, _, _ := g.FusedCSR()
	if len(a.Node) != g.N() || len(a.Edge) != len(nbr) {
		panic(fmt.Sprintf("objective: %s.Arrays returned %d node / %d edge values for a graph with %d nodes / %d adjacency entries",
			obj.Name(), len(a.Node), len(a.Edge), g.N(), len(nbr)))
	}
	return &Binding{obj: obj, g: g, off: off, nbr: nbr, edge: a.Edge, node: a.Node}
}

// Objective returns the bound objective.
func (b *Binding) Objective() Objective { return b.obj }

// Name returns the bound objective's registry name.
func (b *Binding) Name() string { return b.obj.Name() }

// Graph returns the bound graph.
func (b *Binding) Graph() *graph.Graph { return b.g }

// CSR exposes the binding's raw arrays in the same substrate shape as
// Graph.FusedCSR: offsets and neighbors alias the graph, edge and node
// are the objective's fused gains. All slices are read-only.
func (b *Binding) CSR() (off []int64, nbr []graph.NodeID, edge, node []float64) {
	return b.off, b.nbr, b.edge, b.node
}

// Delta returns the fused-additive marginal gain of adding v to the set
// identified by inSet: Node[v] plus the Edge entries toward in-set
// neighbors. O(deg v).
func (b *Binding) Delta(v graph.NodeID, inSet func(graph.NodeID) bool) float64 {
	d := b.node[v]
	for p := b.off[v]; p < b.off[v+1]; p++ {
		if inSet(b.nbr[p]) {
			d += b.edge[p]
		}
	}
	return d
}

// Bound returns the §3.1 admissible bound on Delta(v|S) over every S —
// the CBAS phase-1 ranking score and pruning-table ingredient: Node[v]
// plus the positive part of every incident Edge entry, accumulated in
// adjacency order (the same float order the pre-seam NodeScore used,
// keeping willingness rankings bit-identical on graphs without negative
// τ). A negative entry can only lower Delta, so it counts as 0: summing
// it would let the bound fall below Delta(v|S) for an S that leaves that
// neighbour out. It is a branch rather than the builtin max, which must
// also order NaN and signed zeros and costs more in this loop, run for
// every node at load.
func (b *Binding) Bound(v graph.NodeID) float64 {
	s := b.node[v]
	for p := b.off[v]; p < b.off[v+1]; p++ {
		if e := b.edge[p]; e > 0 {
			s += e
		}
	}
	return s
}

// Value evaluates the objective over a whole group under the
// fused-additive contract: Σ Node over members plus Σ Edge over in-set
// undirected edges, each counted once at its higher endpoint. Duplicate
// ids in set are a caller error. O(Σ_{v∈set} (deg v + |set|)).
func (b *Binding) Value(set []graph.NodeID) float64 {
	if len(set) == 0 {
		return 0
	}
	sorted := set
	if !slices.IsSorted(sorted) {
		sorted = append([]graph.NodeID(nil), set...)
		slices.Sort(sorted)
	}
	w := 0.0
	for _, v := range sorted {
		w += b.node[v]
		i := 0
		for p := b.off[v]; p < b.off[v+1]; p++ {
			u := b.nbr[p]
			if u >= v {
				break // adjacency is sorted: every in-set edge below counts once
			}
			for i < len(sorted) && sorted[i] < u {
				i++
			}
			if i == len(sorted) {
				break
			}
			if sorted[i] == u {
				w += b.edge[p]
			}
		}
	}
	return w
}

// Plan is the zero search-budget plan Binding.Plan returns. It exists
// only because servebench's replica still reads its two fields
// (servebench/replica.go:285 and :290). ROADMAP queues the servebench
// change that drops those calls; Plan and Binding.Plan go with it.
type Plan struct {
	Starts    int
	RegionCap int
}

// Plan returns the zero Plan for every k: no objective adjusts the
// search budget. Kept for servebench's replica only (see Plan).
func (b *Binding) Plan(k int) Plan { return Plan{} }

// ErrUnknown is wrapped by New for unregistered names; transports map it
// to an invalid-request error.
var ErrUnknown = errors.New("objective: unknown objective")

var registry = map[string]Objective{
	"friend":      Friend{},
	"willingness": Willingness{},
}

// New returns the objective registered under name; "" resolves to
// Default. Unknown names return an error wrapping ErrUnknown that lists
// what exists.
func New(name string) (Objective, error) {
	if name == "" {
		name = Default
	}
	if obj, ok := registry[name]; ok {
		return obj, nil
	}
	return nil, fmt.Errorf("%w %q (have %s)", ErrUnknown, name, strings.Join(Names(), ", "))
}

// Names returns the registered objective names, sorted.
func Names() []string { return slices.Sorted(maps.Keys(registry)) }
