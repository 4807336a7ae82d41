package objective

import (
	"errors"
	"math"
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
	if got := b.Score(1); got != 5.75 {
		t.Errorf("Score(1) = %v, want 5.75", got)
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

	// No budget opinion: the solvers keep the request's values.
	if p := b.Plan(8); p != (Plan{}) {
		t.Errorf("willingness Plan = %+v, want zero plan", p)
	}
}

// TestRegistry: name resolution, the empty-name default, unknown-name
// errors, sorted Names, and duplicate registration.
func TestRegistry(t *testing.T) {
	def, err := New("")
	if err != nil || def.Name() != Default {
		t.Fatalf("New(\"\") = %v, %v; want the %s default", def, err, Default)
	}
	if _, err := New("entropy"); !errors.Is(err, ErrUnknown) {
		t.Errorf("New(unknown) error = %v, want ErrUnknown", err)
	} else if !strings.Contains(err.Error(), "willingness") {
		t.Errorf("unknown-name error %q does not list the registered names", err)
	}

	names := Names()
	if len(names) < 3 {
		t.Fatalf("Names() = %v, want at least willingness, friend, budget", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for i, obj := range All() {
		if obj.Name() != names[i] {
			t.Errorf("All()[%d] = %s, want %s (Names order)", i, obj.Name(), names[i])
		}
		got, err := New(names[i])
		if err != nil || got.Name() != names[i] {
			t.Errorf("New(%q) = %v, %v", names[i], got, err)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(Willingness{})
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
			// Locate the reverse entry and demand bit equality.
			u := nbr[p]
			found := false
			for q := off[u]; q < off[u+1]; q++ {
				if nbr[q] == graph.NodeID(v) {
					found = true
					if math.Float64bits(edge[q]) != math.Float64bits(edge[p]) {
						t.Errorf("edge gain %d↔%d asymmetric: %v vs %v", v, u, edge[p], edge[q])
					}
				}
			}
			if !found {
				t.Fatalf("adjacency missing reverse entry %d→%d", u, v)
			}
		}
	}

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

// TestBudgetPlan: the scale-adaptive plan is a pure function of Scale,
// clamps at both extremes, surfaces a policy string, and scores exactly
// like willingness (same aliased arrays).
func TestBudgetPlan(t *testing.T) {
	var obj Budget
	tiny := Scale{N: 4, M: 3, AvgDeg: 1.5, K: 2}
	huge := Scale{N: 1 << 20, M: 1 << 23, AvgDeg: 16, K: 32}

	if a, b := obj.Plan(tiny), obj.Plan(tiny); a != b {
		t.Errorf("Plan not deterministic: %+v vs %+v", a, b)
	}
	lo := obj.Plan(tiny)
	if lo.Starts != 4 || lo.Samples != 64 || lo.RegionCap != 1024 {
		t.Errorf("tiny plan %+v, want the lower clamps 4/64/1024", lo)
	}
	hi := obj.Plan(huge)
	if hi.Starts != 21 || hi.Samples != 1024 || hi.RegionCap != 1<<15 {
		t.Errorf("huge plan %+v, want starts=21 samples=1024 regioncap=32768", hi)
	}
	for _, p := range []Plan{lo, hi} {
		if !strings.Contains(p.Policy, "saga:") {
			t.Errorf("policy %q does not identify the saga plan", p.Policy)
		}
	}

	g := buildRef(t)
	if bw, bb := bind(t, "willingness", g), bind(t, "budget", g); bw.Value([]graph.NodeID{0, 1, 2}) != bb.Value([]graph.NodeID{0, 1, 2}) {
		t.Error("budget scoring diverged from willingness")
	}
	if p := bind(t, "budget", g).Plan(2); p.Policy == "" || p.Starts < 4 {
		t.Errorf("Binding.Plan(2) = %+v, want a populated saga plan", p)
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
		for _, obj := range All() {
			t.Run(tc.name+"/"+obj.Name(), func(t *testing.T) { checkDeltaBound(t, Bind(obj, tc.g)) })
		}
	}
}

func checkDeltaBound(t *testing.T, b *Binding) {
	g, name := b.Graph(), b.Name()
	off, nbr, edge, _ := b.CSR()
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		bound := b.Score(v)
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
type truncated struct{ Additive }

func (truncated) Name() string { return "truncated" }
func (truncated) Arrays(g *graph.Graph) Arrays {
	return Arrays{Edge: make([]float64, 1), Node: make([]float64, 1)}
}
