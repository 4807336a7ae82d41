package objective

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"waso/internal/graph"
)

// buildRef mirrors the graph package's reference fixture: two components
// {0,1,2} and {3,4}, η = 1..5, asymmetric τ. Hand-computable willingness:
// W({0,1}) = 3.75, W({0,1,2}) = 10.05, W({3,4}) = 10, Bound(1) = 5.75.
func buildRef(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.SetInterest(graph.NodeID(i), float64(i+1))
	}
	b.AddEdge(0, 1, 0.5, 0.25)
	b.AddEdge(1, 2, 1, 2)
	b.AddEdge(0, 2, 0.1, 0.2)
	b.AddEdge(3, 4, 0.3, 0.7)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func bind(t *testing.T, name string, g *graph.Graph) *Binding {
	t.Helper()
	obj, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	return Bind(obj, g)
}

// inSetOf adapts a node slice to the Delta membership callback.
func inSetOf(set []graph.NodeID) func(graph.NodeID) bool {
	m := map[graph.NodeID]bool{}
	for _, v := range set {
		m[v] = true
	}
	return func(v graph.NodeID) bool { return m[v] }
}

// TestWillingnessReference pins the default objective to the paper's Eq. 1
// semantics on hand-computed values, and to the zero-copy alias contract
// that makes the seam bit-identical to the pre-seam code.
func TestWillingnessReference(t *testing.T) {
	g := buildRef(t)
	b := bind(t, "willingness", g)

	for _, tc := range []struct {
		set  []graph.NodeID
		want float64
	}{
		{nil, 0},
		{[]graph.NodeID{0}, 1},
		{[]graph.NodeID{0, 1}, 1 + 2 + 0.5 + 0.25},
		{[]graph.NodeID{0, 1, 2}, 6 + 0.75 + 3 + 0.3},
		{[]graph.NodeID{3, 4}, 9 + 1},
		{[]graph.NodeID{0, 3}, 5}, // cross-component: no edge term
	} {
		if got := b.Value(tc.set); got != tc.want {
			t.Errorf("Value(%v) = %v, want %v", tc.set, got, tc.want)
		}
	}
	// Unsorted input must evaluate identically (and not mutate the caller's
	// slice).
	set := []graph.NodeID{2, 0, 1}
	if got := b.Value(set); got != 10.05 {
		t.Errorf("Value(unsorted) = %v, want 10.05", got)
	}
	if set[0] != 2 || set[1] != 0 || set[2] != 1 {
		t.Errorf("Value sorted the caller's slice in place: %v", set)
	}

	// Bound(1) = η₁ + (τ₀₁+τ₁₀) + (τ₁₂+τ₂₁) = 2 + 0.75 + 3.
	if got := b.Bound(1); got != 5.75 {
		t.Errorf("Bound(1) = %v, want 5.75", got)
	}
	// Δ(2 | {0,1}) = η₂ + (τ₀₂+τ₂₀) + (τ₁₂+τ₂₁) = 3 + 0.3 + 3.
	if got := b.Delta(2, inSetOf([]graph.NodeID{0, 1})); got != 6.3 {
		t.Errorf("Delta(2 | {0,1}) = %v, want 6.3", got)
	}
	// Δ of an isolated-from-S node is its node gain alone.
	if got := b.Delta(3, inSetOf([]graph.NodeID{0, 1})); got != 4 {
		t.Errorf("Delta(3 | {0,1}) = %v, want 4", got)
	}

	// Alias contract: willingness arrays share backing storage with the
	// graph's fused CSR — same first-element addresses, not copies.
	_, _, wSum, interest := g.FusedCSR()
	a := Willingness{}.Arrays(g)
	if &a.Edge[0] != &wSum[0] || &a.Node[0] != &interest[0] {
		t.Error("willingness Arrays copied the graph's fused slabs instead of aliasing them")
	}
}

// TestRegistry: name resolution, the empty-name default, unknown-name
// errors that list exactly the registered names, and sorted Names.
func TestRegistry(t *testing.T) {
	def, err := New("")
	if err != nil || def.Name() != Default {
		t.Fatalf("New(\"\") = %v, %v; want the %s default", def, err, Default)
	}
	for _, name := range []string{"entropy", "budget"} {
		if _, err := New(name); !errors.Is(err, ErrUnknown) {
			t.Errorf("New(%q) error = %v, want ErrUnknown", name, err)
		} else if !strings.HasSuffix(err.Error(), "(have friend, willingness)") {
			t.Errorf("unknown-name error %q does not list exactly the registered names", err)
		}
	}

	names := Names()
	if !slices.Equal(names, []string{"friend", "willingness"}) {
		t.Fatalf("Names() = %v, want [friend willingness]", names)
	}
	for _, name := range names {
		got, err := New(name)
		if err != nil || got.Name() != name {
			t.Errorf("New(%q) = %v, %v", name, got, err)
		}
	}
}

// bindAll binds every registered objective over g, in Names order.
func bindAll(t *testing.T, g *graph.Graph) []*Binding {
	t.Helper()
	var bs []*Binding
	for _, name := range Names() {
		bs = append(bs, bind(t, name, g))
	}
	return bs
}

// TestFriendProperties: every edge gain is a probability in (0,1),
// bit-symmetric per undirected edge; node gains are the squashed interest;
// and likelier friendships score strictly higher (monotonicity).
func TestFriendProperties(t *testing.T) {
	g := buildRef(t)
	b := bind(t, "friend", g)
	off, nbr, edge, node := b.CSR()

	for i, nv := range node {
		if want := squash(g.Interest(graph.NodeID(i))); nv != want {
			t.Errorf("node[%d] = %v, want squash(η) = %v", i, nv, want)
		}
	}
	for v := 0; v < g.N(); v++ {
		for p := off[v]; p < off[v+1]; p++ {
			if edge[p] <= 0 || edge[p] >= 1 {
				t.Errorf("edge gain %d→%d = %v outside (0,1)", v, nbr[p], edge[p])
			}
		}
	}
	checkEdgeSymmetric(t, b)

	// squash: odd around 0.5, monotone, bounded.
	if squash(0) != 0.5 {
		t.Errorf("squash(0) = %v, want 0.5", squash(0))
	}
	for _, tc := range []struct{ lo, hi float64 }{{-3, -1}, {-1, 0}, {0, 0.5}, {0.5, 4}, {4, 1e9}} {
		if squash(tc.lo) >= squash(tc.hi) {
			t.Errorf("squash not monotone: squash(%g)=%v ≥ squash(%g)=%v",
				tc.lo, squash(tc.lo), tc.hi, squash(tc.hi))
		}
	}

	// The tighter {1,2} pair (τ = 1, 2) must out-score the looser {0,2}
	// pair (τ = 0.1, 0.2) under friend, mirroring the willingness order.
	pairW := func(u, v graph.NodeID) float64 { return b.Value([]graph.NodeID{u, v}) }
	if pairW(1, 2) <= pairW(0, 2) {
		t.Errorf("friend ranks loose pair over tight pair: %v vs %v", pairW(0, 2), pairW(1, 2))
	}
}

// checkEdgeSymmetric requires the Edge entry at v for u to bit-equal the
// entry at u for v, as the package contract demands and Binding.Value's
// count-each-edge-once relies on.
func checkEdgeSymmetric(t *testing.T, b *Binding) {
	t.Helper()
	off, nbr, edge, _ := b.CSR()
	for v := graph.NodeID(0); int(v) < b.Graph().N(); v++ {
		for p := off[v]; p < off[v+1]; p++ {
			u := nbr[p]
			q, ok := slices.BinarySearch(nbr[off[u]:off[u+1]], v)
			if !ok {
				t.Fatalf("%s: adjacency missing reverse entry %d→%d", b.Name(), u, v)
			}
			if r := edge[off[u]+int64(q)]; math.Float64bits(r) != math.Float64bits(edge[p]) {
				t.Errorf("%s: edge gain %d↔%d asymmetric: %v vs %v", b.Name(), v, u, edge[p], r)
			}
		}
	}
}

// TestEdgeSymmetry: every registered objective's Edge is bit-symmetric on
// a random graph whose two directions carry different τ, and again after a
// mutation batch that re-weights one direction, adds and deletes edges.
func TestEdgeSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 60
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.SetInterest(graph.NodeID(i), rng.Float64())
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.1 {
				b.AddEdge(graph.NodeID(i), graph.NodeID(j), 3*rng.Float64()-1, 3*rng.Float64()-1)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var muts []graph.Mutation
	used := map[graph.NodeID]bool{}
	for v := graph.NodeID(0); v < n && len(muts) < 6; v++ {
		nbrs, _, tauIn := g.Edges(v)
		if len(nbrs) < 2 || used[v] || used[nbrs[0]] || used[nbrs[1]] {
			continue
		}
		used[v], used[nbrs[0]], used[nbrs[1]] = true, true, true
		// Re-weight τ_{v,u} only, keep τ_{u,v}; drop the next edge.
		muts = append(muts,
			graph.Mutation{Op: graph.MutSetTau, U: v, V: nbrs[0], TauOut: 3*rng.Float64() - 1, TauIn: tauIn[0]},
			graph.Mutation{Op: graph.MutDelEdge, U: v, V: nbrs[1]})
	}
	for added := 0; added < 6; {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if _, _, ok := g.Tau(u, v); ok || u == v || slices.ContainsFunc(muts, func(m graph.Mutation) bool {
			return m.Op == graph.MutAddEdge && (m.U == u && m.V == v || m.U == v && m.V == u)
		}) {
			continue
		}
		muts = append(muts, graph.Mutation{Op: graph.MutAddEdge, U: u, V: v, TauOut: 3*rng.Float64() - 1, TauIn: 3*rng.Float64() - 1})
		added++
	}
	g2, _, err := g.ApplyMutations(muts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range append(bindAll(t, g), bindAll(t, g2)...) {
		checkEdgeSymmetric(t, b)
	}
}

// buildSigned is buildRef's topology plus an edge 2–3, with τ of mixed
// sign: the fused weights of 1–2 and 3–4 are negative, those of 0–1, 0–2
// and 2–3 positive.
func buildSigned(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.SetInterest(graph.NodeID(i), float64(i+1))
	}
	b.AddEdge(0, 1, 0.5, 0.25)
	b.AddEdge(1, 2, -1, -2)
	b.AddEdge(0, 2, 0.1, 0.2)
	b.AddEdge(2, 3, 1, -0.25)
	b.AddEdge(3, 4, -1.5, 0.5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDeltaBoundContract: for every registered objective, Bound(v) must
// dominate Delta(v|S) for every tried S (admissibility), negative τ
// included, with equality when S holds exactly v's neighbours across
// positive Edge entries, and incremental Deltas must reconstruct Value.
func TestDeltaBoundContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"ref", buildRef(t)}, {"signed", buildSigned(t)}} {
		for _, b := range bindAll(t, tc.g) {
			t.Run(tc.name+"/"+b.Name(), func(t *testing.T) { checkDeltaBound(t, b) })
		}
	}
}

func checkDeltaBound(t *testing.T, b *Binding) {
	g, name := b.Graph(), b.Name()
	off, nbr, edge, _ := b.CSR()
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		bound := b.Bound(v)
		for _, set := range [][]graph.NodeID{
			nil,
			{0}, {1}, {3},
			{0, 1}, {1, 2}, {3, 4},
			{0, 1, 2, 3, 4},
		} {
			d := b.Delta(v, inSetOf(set))
			if d > bound {
				t.Errorf("%s: Delta(%d | %v) = %v exceeds Bound = %v", name, v, set, d, bound)
			}
		}
		// The positive-Edge neighbours meet the bound exactly (same
		// accumulation order); without a negative entry, so does S ⊇ N(v).
		var positive []graph.NodeID
		negative := false
		for p := off[v]; p < off[v+1]; p++ {
			if edge[p] > 0 {
				positive = append(positive, nbr[p])
			}
			negative = negative || edge[p] < 0
		}
		if d := b.Delta(v, inSetOf(positive)); d != bound {
			t.Errorf("%s: Delta(%d | %v) = %v != Bound = %v", name, v, positive, d, bound)
		}
		if d := b.Delta(v, func(graph.NodeID) bool { return true }); !negative && d != bound {
			t.Errorf("%s: Delta(%d | V) = %v != Bound = %v", name, v, d, bound)
		}
	}
	// Greedy reconstruction: summing Deltas along any insertion order
	// reaches Value of the final set (within float tolerance — the
	// accumulation orders differ).
	for _, order := range [][]graph.NodeID{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
		sum, cur := 0.0, []graph.NodeID(nil)
		for _, v := range order {
			sum += b.Delta(v, inSetOf(cur))
			cur = append(cur, v)
		}
		if want := b.Value(order); math.Abs(sum-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Errorf("%s: Σ Delta along %v = %v, Value = %v", name, order, sum, want)
		}
	}
}

// TestBindValidation: a misshapen Arrays result is a programmer error and
// must panic at Bind time, not corrupt a solve later.
func TestBindValidation(t *testing.T) {
	g := buildRef(t)
	defer func() {
		if recover() == nil {
			t.Error("Bind accepted misshapen arrays")
		}
	}()
	Bind(truncated{}, g)
}

// truncated returns arrays for a smaller graph than it is bound to.
type truncated struct{}

func (truncated) Name() string { return "truncated" }
func (truncated) Arrays(g *graph.Graph) Arrays {
	return Arrays{Edge: make([]float64, 1), Node: make([]float64, 1)}
}
