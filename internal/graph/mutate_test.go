package graph

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refModel is the test-side reference: a mutable edge map + interest slice
// that mirrors what a mutation sequence should produce, rebuilt into a
// canonical Graph via the Builder for byte-level comparison.
type refModel struct {
	etas  []float64
	edges map[[2]NodeID][2]float64 // canonical (lo,hi) -> (τ_{lo,hi}, τ_{hi,lo})
}

func newRefModel(etas []float64) *refModel {
	return &refModel{etas: append([]float64(nil), etas...), edges: make(map[[2]NodeID][2]float64)}
}

func (r *refModel) apply(m Mutation) {
	switch m.Op {
	case MutSetInterest:
		if int(m.U) == len(r.etas) {
			r.etas = append(r.etas, m.Eta)
		} else {
			r.etas[m.U] = m.Eta
		}
	case MutAddEdge, MutSetTau:
		k := [2]NodeID{m.U, m.V}
		w := [2]float64{m.TauOut, m.TauIn}
		if m.V < m.U {
			k = [2]NodeID{m.V, m.U}
			w = [2]float64{m.TauIn, m.TauOut}
		}
		r.edges[k] = w
	case MutDelEdge:
		k := [2]NodeID{m.U, m.V}
		if m.V < m.U {
			k = [2]NodeID{m.V, m.U}
		}
		delete(r.edges, k)
	}
}

// build assembles the reference state into a canonical Graph.
func (r *refModel) build(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(len(r.etas))
	for i, eta := range r.etas {
		b.SetInterest(NodeID(i), eta)
	}
	keys := make([][2]NodeID, 0, len(r.edges))
	for k := range r.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, c int) bool {
		if keys[a][0] != keys[c][0] {
			return keys[a][0] < keys[c][0]
		}
		return keys[a][1] < keys[c][1]
	})
	for _, k := range keys {
		w := r.edges[k]
		b.AddEdge(k[0], k[1], w[0], w[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	return g
}

func encodeBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func randomGraph(t *testing.T, rng *rand.Rand, n int) (*Graph, *refModel) {
	t.Helper()
	etas := make([]float64, n)
	for i := range etas {
		etas[i] = float64(rng.Intn(1000)) / 64
	}
	ref := newRefModel(etas)
	m := rng.Intn(3*n + 1)
	for e := 0; e < m; e++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		ref.apply(Mutation{Op: MutAddEdge, U: u, V: v,
			TauOut: float64(rng.Intn(256)) / 128, TauIn: float64(rng.Intn(256)) / 128})
	}
	return ref.build(t), ref
}

// randomBatch generates one valid mutation batch against the reference
// state, mutating the reference alongside.
func randomBatch(rng *rand.Rand, ref *refModel) []Mutation {
	var muts []Mutation
	// Track batch-running edge state so ops stay valid mid-batch.
	has := func(u, v NodeID) bool {
		k := [2]NodeID{u, v}
		if v < u {
			k = [2]NodeID{v, u}
		}
		_, ok := ref.edges[k]
		return ok
	}
	nops := 1 + rng.Intn(8)
	for i := 0; i < nops; i++ {
		n := len(ref.etas)
		var m Mutation
		switch op := rng.Intn(10); {
		case op == 0: // append a node
			m = Mutation{Op: MutSetInterest, U: NodeID(n), Eta: float64(rng.Intn(1000)) / 64}
		case op < 3: // retune an interest score
			m = Mutation{Op: MutSetInterest, U: NodeID(rng.Intn(n)), Eta: float64(rng.Intn(1000)) / 64}
		default:
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			switch {
			case !has(u, v):
				m = Mutation{Op: MutAddEdge, U: u, V: v,
					TauOut: float64(rng.Intn(256)) / 128, TauIn: float64(rng.Intn(256)) / 128}
			case op < 6:
				m = Mutation{Op: MutDelEdge, U: u, V: v}
			default:
				m = Mutation{Op: MutSetTau, U: u, V: v,
					TauOut: float64(rng.Intn(256)) / 128, TauIn: float64(rng.Intn(256)) / 128}
			}
		}
		ref.apply(m)
		muts = append(muts, m)
	}
	return muts
}

// TestApplyMutationsCanonical chains random mutation batches on random
// graphs and asserts after each batch that the mutated graph is
// byte-identical under Encode to a fresh Builder construction of the same
// node/edge set, with bit-identical fused weights and exact-size arrays —
// the invariance the serving layer's "mutated graph solves like a fresh
// upload" guarantee stands on.
func TestApplyMutationsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		g, ref := randomGraph(t, rng, n)
		for round := 0; round < 6; round++ {
			muts := randomBatch(rng, ref)
			if len(muts) == 0 {
				continue
			}
			g2, touched, err := g.ApplyMutations(muts)
			if err != nil {
				t.Fatalf("trial %d round %d: apply: %v", trial, round, err)
			}
			if err := g2.Validate(); err != nil {
				t.Fatalf("trial %d round %d: mutated graph invalid: %v", trial, round, err)
			}
			want := ref.build(t)
			if !bytes.Equal(encodeBytes(t, g2), encodeBytes(t, want)) {
				t.Fatalf("trial %d round %d: mutated graph not byte-identical to fresh build (muts=%+v)",
					trial, round, muts)
			}
			// Encode does not carry the fused weights, so compare them too.
			_, _, gotW, _ := g2.FusedCSR()
			_, _, wantW, _ := want.FusedCSR()
			if len(gotW) != len(wantW) {
				t.Fatalf("trial %d round %d: %d fused weights, want %d", trial, round, len(gotW), len(wantW))
			}
			for p := range wantW {
				if math.Float64bits(gotW[p]) != math.Float64bits(wantW[p]) {
					t.Fatalf("trial %d round %d: fused weight %d = %v, want %v (muts=%+v)",
						trial, round, p, gotW[p], wantW[p], muts)
				}
			}
			checkExactSize(t, g2)
			for i := 1; i < len(touched); i++ {
				if touched[i] <= touched[i-1] {
					t.Fatalf("touched not sorted+deduped: %v", touched)
				}
			}
			// Bound-style scores (η + Σ incident fused weight, read from
			// the same row the additive objective's Bound reads) of
			// untouched nodes must be bit-identical — that is the contract
			// surgical Prep refresh relies on.
			boundScore := func(g *Graph, v NodeID) float64 {
				s := g.Interest(v)
				_, w := g.FusedEdges(v)
				for _, x := range w {
					s += x
				}
				return s
			}
			isTouched := make(map[NodeID]bool, len(touched))
			for _, v := range touched {
				isTouched[v] = true
			}
			for i := 0; i < g.N(); i++ {
				v := NodeID(i)
				if isTouched[v] {
					continue
				}
				if a, b := boundScore(g, v), boundScore(g2, v); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("untouched node %d changed bound score %v -> %v", v, a, b)
				}
			}
			g = g2
		}
	}
}

// TestApplyMutationsTouched pins the surgical touched-set semantics.
func TestApplyMutationsTouched(t *testing.T) {
	g, err := FromEdgeList(5, []float64{1, 2, 3, 4, 5},
		[][2]NodeID{{0, 1}, {1, 2}, {3, 4}}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		muts []Mutation
		want []NodeID
	}{
		{"eta change", []Mutation{{Op: MutSetInterest, U: 2, Eta: 9}}, []NodeID{2}},
		{"eta same value", []Mutation{{Op: MutSetInterest, U: 2, Eta: 3}}, []NodeID{}},
		{"add edge", []Mutation{{Op: MutAddEdge, U: 0, V: 4, TauOut: 1, TauIn: 1}}, []NodeID{0, 4}},
		{"del edge", []Mutation{{Op: MutDelEdge, U: 1, V: 2}}, []NodeID{1, 2}},
		{"set tau", []Mutation{{Op: MutSetTau, U: 0, V: 1, TauOut: 7, TauIn: 7}}, []NodeID{0, 1}},
		{"set tau same values", []Mutation{{Op: MutSetTau, U: 0, V: 1, TauOut: 1, TauIn: 1}}, []NodeID{}},
		{"add then del cancels", []Mutation{
			{Op: MutAddEdge, U: 0, V: 4, TauOut: 1, TauIn: 1},
			{Op: MutDelEdge, U: 0, V: 4},
		}, []NodeID{}},
		{"append node", []Mutation{{Op: MutSetInterest, U: 5, Eta: 1}}, []NodeID{5}},
		{"append and connect", []Mutation{
			{Op: MutSetInterest, U: 5, Eta: 1},
			{Op: MutAddEdge, U: 5, V: 0, TauOut: 2, TauIn: 2},
		}, []NodeID{0, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, touched, err := g.ApplyMutations(tc.muts)
			if err != nil {
				t.Fatal(err)
			}
			if len(touched) != len(tc.want) {
				t.Fatalf("touched = %v, want %v", touched, tc.want)
			}
			for i := range touched {
				if touched[i] != tc.want[i] {
					t.Fatalf("touched = %v, want %v", touched, tc.want)
				}
			}
		})
	}
}

// TestApplyMutationsErrors exercises the validation failures; every one
// must reject the whole batch.
func TestApplyMutationsErrors(t *testing.T) {
	g, err := FromEdgeList(3, []float64{1, 2, 3}, [][2]NodeID{{0, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	cases := []struct {
		name string
		muts []Mutation
		sub  string
	}{
		{"empty batch", nil, "empty"},
		{"unknown op", []Mutation{{Op: 99, U: 0}}, "unknown"},
		{"eta NaN", []Mutation{{Op: MutSetInterest, U: 0, Eta: math.NaN()}}, "non-finite"},
		{"node gap", []Mutation{{Op: MutSetInterest, U: 5, Eta: 1}}, "out of range"},
		{"negative node", []Mutation{{Op: MutSetInterest, U: -1, Eta: 1}}, "out of range"},
		{"self loop", []Mutation{{Op: MutAddEdge, U: 1, V: 1, TauOut: 1, TauIn: 1}}, "self-loop"},
		{"edge out of range", []Mutation{{Op: MutAddEdge, U: 0, V: 9, TauOut: 1, TauIn: 1}}, "out of range"},
		{"tau inf", []Mutation{{Op: MutAddEdge, U: 0, V: 2, TauOut: inf, TauIn: 1}}, "non-finite"},
		{"add existing", []Mutation{{Op: MutAddEdge, U: 0, V: 1, TauOut: 1, TauIn: 1}}, "already exists"},
		{"del missing", []Mutation{{Op: MutDelEdge, U: 0, V: 2}}, "does not exist"},
		{"set missing", []Mutation{{Op: MutSetTau, U: 0, V: 2, TauOut: 1, TauIn: 1}}, "does not exist"},
		{"double del in batch", []Mutation{
			{Op: MutDelEdge, U: 0, V: 1},
			{Op: MutDelEdge, U: 1, V: 0},
		}, "does not exist"},
		{"double add in batch", []Mutation{
			{Op: MutAddEdge, U: 0, V: 2, TauOut: 1, TauIn: 1},
			{Op: MutAddEdge, U: 2, V: 0, TauOut: 1, TauIn: 1},
		}, "already exists"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g2, touched, err := g.ApplyMutations(tc.muts)
			if err == nil {
				t.Fatalf("expected error, got graph n=%d touched=%v", g2.N(), touched)
			}
			if !strings.Contains(err.Error(), tc.sub) {
				t.Fatalf("error %q does not mention %q", err, tc.sub)
			}
		})
	}
}

// TestApplyMutationsImmutable asserts copy-on-write: the source graph's
// encode bytes are unchanged by a mutation.
func TestApplyMutationsImmutable(t *testing.T) {
	g, err := FromEdgeList(4, []float64{1, 2, 3, 4}, [][2]NodeID{{0, 1}, {2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := encodeBytes(t, g)
	_, _, err = g.ApplyMutations([]Mutation{
		{Op: MutSetInterest, U: 0, Eta: 99},
		{Op: MutDelEdge, U: 2, V: 3},
		{Op: MutAddEdge, U: 0, V: 2, TauOut: 5, TauIn: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, encodeBytes(t, g)) {
		t.Fatal("source graph modified by ApplyMutations")
	}
}

// TestHopDistances checks the multi-source BFS against a reference
// single-source sweep and the depth cutoff.
func TestHopDistances(t *testing.T) {
	// Path 0-1-2-3-4 plus isolated 5.
	g, err := FromEdgeList(6, []float64{1, 1, 1, 1, 1, 1},
		[][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := g.HopDistances([]NodeID{0}, 10)
	for v, want := range map[NodeID]int{0: 0, 1: 1, 2: 2, 3: 3, 4: 4} {
		if got, ok := d[v]; !ok || got != want {
			t.Fatalf("dist[%d] = %d,%v want %d", v, got, ok, want)
		}
	}
	if _, ok := d[5]; ok {
		t.Fatal("isolated node reachable")
	}
	// Depth cutoff.
	d = g.HopDistances([]NodeID{0}, 2)
	if _, ok := d[3]; ok {
		t.Fatalf("maxDepth=2 reached node 3: %v", d)
	}
	if d[2] != 2 {
		t.Fatalf("dist[2] = %d want 2", d[2])
	}
	// Multi-source takes the minimum.
	d = g.HopDistances([]NodeID{0, 4}, 10)
	if d[2] != 2 || d[3] != 1 || d[1] != 1 {
		t.Fatalf("multi-source distances wrong: %v", d)
	}
	// Out-of-range and duplicate sources are tolerated.
	d = g.HopDistances([]NodeID{0, 0, 99, -1}, 1)
	if d[0] != 0 || d[1] != 1 {
		t.Fatalf("robust source handling wrong: %v", d)
	}
	// Random graphs, against the map-based BFS HopDistances replaced:
	// isolated nodes, duplicate, negative and out-of-range sources, and
	// depth cutoffs from none to past the diameter.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		linked := 1 + rng.Intn(n) // nodes at or above linked stay isolated
		b := NewBuilder(n)
		for e := rng.Intn(2*linked + 1); e > 0; e-- {
			if u, v := NodeID(rng.Intn(linked)), NodeID(rng.Intn(linked)); u != v {
				b.AddEdgeSym(u, v, 1)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var sources []NodeID
		for k := rng.Intn(7); k > 0; k-- {
			s := NodeID(rng.Intn(n+4) - 2)
			if len(sources) > 0 && rng.Intn(4) == 0 {
				s = sources[rng.Intn(len(sources))]
			}
			sources = append(sources, s)
		}
		maxDepth := rng.Intn(8) - 1
		got, want := g.HopDistances(sources, maxDepth), hopDistancesByMap(g, sources, maxDepth)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d nodes reached, want %d (sources %v, depth %d)", trial, len(got), len(want), sources, maxDepth)
		}
		for v, dv := range want {
			if d, ok := got[v]; !ok || d != dv {
				t.Fatalf("trial %d: dist[%d] = %d,%v want %d (sources %v, depth %d)", trial, v, d, ok, dv, sources, maxDepth)
			}
		}
	}
}

// hopDistancesByMap is the multi-source BFS as HopDistances ran it before
// the bitset: the result map doubles as the visited set, probed once per
// adjacency entry scanned.
func hopDistancesByMap(g *Graph, sources []NodeID, maxDepth int) map[NodeID]int {
	dist := make(map[NodeID]int, len(sources))
	q := make([]NodeID, 0, len(sources))
	for _, s := range sources {
		if int(s) < 0 || int(s) >= g.N() {
			continue
		}
		if _, seen := dist[s]; seen {
			continue
		}
		dist[s] = 0
		q = append(q, s)
	}
	levelEnd, depth := len(q), 0
	for head := 0; head < len(q); head++ {
		if head == levelEnd {
			depth++
			levelEnd = len(q)
		}
		if depth >= maxDepth {
			break
		}
		for _, u := range g.Neighbors(q[head]) {
			if _, seen := dist[u]; seen {
				continue
			}
			dist[u] = depth + 1
			q = append(q, u)
		}
	}
	return dist
}

// TestApplyMutationsSignedZero: weights and interests compare by bits, so
// a batch that sets an edge from +0 to 5 and on to -0 leaves -0 and reports
// the edge's endpoints, as one call per op does, and an η flip from +0 to
// -0 reports its node.
func TestApplyMutationsSignedZero(t *testing.T) {
	g, err := FromEdgeList(3, []float64{0, 1, 1}, [][2]NodeID{{0, 1}, {1, 2}}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	set := func(w float64) Mutation { return Mutation{Op: MutSetTau, U: 0, V: 1, TauOut: w, TauIn: w} }
	batched, touched, err := g.ApplyMutations([]Mutation{set(5), set(negZero)})
	if err != nil {
		t.Fatal(err)
	}
	g1, _, err := g.ApplyMutations([]Mutation{set(5)})
	if err != nil {
		t.Fatal(err)
	}
	split, _, err := g1.ApplyMutations([]Mutation{set(negZero)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, batched), encodeBytes(t, split)) {
		t.Fatal("one batch and one call per op disagree")
	}
	if out, in, _ := batched.Tau(0, 1); !math.Signbit(out) || !math.Signbit(in) {
		t.Fatalf("τ(0,1) = %v, %v, want -0, -0", out, in)
	}
	if _, w := batched.FusedEdges(0); !math.Signbit(w[0]) {
		t.Fatalf("fused weight %v, want -0", w[0])
	}
	if len(touched) != 2 || touched[0] != 0 || touched[1] != 1 {
		t.Fatalf("touched = %v, want [0 1]", touched)
	}

	flipped, touched, err := g.ApplyMutations([]Mutation{{Op: MutSetInterest, U: 0, Eta: negZero}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(flipped.Interest(0)) {
		t.Fatalf("η(0) = %v, want -0", flipped.Interest(0))
	}
	if len(touched) != 1 || touched[0] != 0 {
		t.Fatalf("η +0 → -0: touched = %v, want [0]", touched)
	}
}

// TestResidentBytes sanity-checks the footprint estimate scales with the
// graph.
func TestResidentBytes(t *testing.T) {
	small, err := FromEdgeList(2, []float64{1, 1}, [][2]NodeID{{0, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	big, err := FromEdgeList(100, make([]float64, 100),
		[][2]NodeID{{0, 1}, {1, 2}, {2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if small.ResidentBytes() <= 0 || big.ResidentBytes() <= small.ResidentBytes() {
		t.Fatalf("ResidentBytes: small=%d big=%d", small.ResidentBytes(), big.ResidentBytes())
	}
}

// TestDecodeMutations covers the wire DTO: happy path, defaults, and the
// field-combination rejections.
func TestDecodeMutations(t *testing.T) {
	body := `[
		{"op":"set_interest","u":3,"eta":1.5},
		{"op":"add_edge","u":0,"v":7,"tau":2},
		{"op":"add_edge","u":1,"v":2,"tau_out":0.3,"tau_in":0.7},
		{"op":"add_edge","u":4,"v":5},
		{"op":"del_edge","u":0,"v":7},
		{"op":"set_tau","u":1,"v":2,"tau":4}
	]`
	muts, err := DecodeMutations(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want := []Mutation{
		{Op: MutSetInterest, U: 3, Eta: 1.5},
		{Op: MutAddEdge, U: 0, V: 7, TauOut: 2, TauIn: 2},
		{Op: MutAddEdge, U: 1, V: 2, TauOut: 0.3, TauIn: 0.7},
		{Op: MutAddEdge, U: 4, V: 5, TauOut: 1, TauIn: 1},
		{Op: MutDelEdge, U: 0, V: 7},
		{Op: MutSetTau, U: 1, V: 2, TauOut: 4, TauIn: 4},
	}
	if len(muts) != len(want) {
		t.Fatalf("decoded %d ops, want %d", len(muts), len(want))
	}
	for i := range want {
		if muts[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, muts[i], want[i])
		}
	}
	bad := []string{
		`[{"op":"nonsense","u":1}]`,
		`[{"op":"set_interest","u":1}]`,                       // no eta
		`[{"op":"set_interest","u":1,"eta":1,"tau":2}]`,       // tau on eta op
		`[{"op":"add_edge","u":0,"v":1,"tau":1,"tau_out":2}]`, // conflicting tau forms
		`[{"op":"add_edge","u":0,"v":1,"eta":3}]`,             // eta on edge op
		`[{"op":"del_edge","u":0,"v":1,"tau":1}]`,             // value on del
		`[{"op":"set_tau","u":0,"v":1}]`,                      // set_tau without values
		`[{"op":"set_tau","u":0,"v":1,"tau":1,"tau_in":2}]`,   // conflicting tau forms
		`[{"op":"add_edge","u":0,"v":1,"bogus":1}]`,           // unknown field
		`{"op":"add_edge"}`,                                   // not an array
	}
	for _, body := range bad {
		if _, err := DecodeMutations(strings.NewReader(body)); err == nil {
			t.Fatalf("decode %s: expected error", body)
		}
	}
}
