package graph

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// buildRef constructs the reference fixture used across tests:
//
//	η = [1 2 3 4 5]
//	edges: {0,1} τ=(0.5,0.25)  {1,2} τ=(1,2)  {0,2} τ=(0.1,0.2)  {3,4} τ=(0.3,0.7)
//
// Components: {0,1,2} and {3,4}.
func buildRef(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(5)
	for i, eta := range []float64{1, 2, 3, 4, 5} {
		b.SetInterest(NodeID(i), eta)
	}
	b.AddEdge(0, 1, 0.5, 0.25)
	b.AddEdge(1, 2, 1, 2)
	b.AddEdge(0, 2, 0.1, 0.2)
	b.AddEdge(3, 4, 0.3, 0.7)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// Willingness scoring semantics (set value, marginal delta, bound score)
// now live in internal/objective; their reference tests moved to
// objective_test.go against the same fixture shape.

func TestConnected(t *testing.T) {
	g := buildRef(t)
	cases := []struct {
		set  []NodeID
		want bool
	}{
		{nil, true},
		{[]NodeID{3}, true},
		{[]NodeID{0, 1, 2}, true},
		{[]NodeID{0, 2}, true},
		{[]NodeID{3, 4}, true},
		{[]NodeID{0, 3}, false},
		{[]NodeID{0, 1, 4}, false},
	}
	for _, c := range cases {
		if got := g.Connected(c.set); got != c.want {
			t.Errorf("Connected(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}

// TestUnsortedSets: Connected accepts sets in any order — the
// sorted-membership scan must sort its own copy when needed.
func TestUnsortedSets(t *testing.T) {
	g := buildRef(t)
	for _, set := range [][]NodeID{{2, 0, 1}, {1, 0}, {4, 3}, {2, 1, 0}} {
		input := append([]NodeID(nil), set...)
		sorted := append([]NodeID(nil), set...)
		for i := range sorted { // insertion sort; tiny fixed sets
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		if got, want := g.Connected(input), g.Connected(sorted); got != want {
			t.Errorf("Connected(%v) = %v, want %v (sorted order)", set, got, want)
		}
		// The caller's slice must come back untouched: the scan sorts a
		// copy, never the input.
		for i := range input {
			if input[i] != set[i] {
				t.Fatalf("input slice reordered: %v -> %v", set, input)
			}
		}
	}
	if g.Connected([]NodeID{4, 0}) {
		t.Error("Connected({4,0}) across components")
	}
}

func TestSubgraph(t *testing.T) {
	g := buildRef(t)
	sub, mapping := g.Subgraph([]NodeID{4, 0, 2, 0}) // duplicates collapse
	if err := sub.Validate(); err != nil {
		t.Fatalf("sub.Validate: %v", err)
	}
	wantMap := []NodeID{0, 2, 4}
	if len(mapping) != len(wantMap) {
		t.Fatalf("mapping = %v, want %v", mapping, wantMap)
	}
	for i, v := range wantMap {
		if mapping[i] != v {
			t.Fatalf("mapping = %v, want %v", mapping, wantMap)
		}
	}
	if sub.N() != 3 || sub.M() != 1 {
		t.Fatalf("sub has N=%d M=%d, want N=3 M=1", sub.N(), sub.M())
	}
	for i, want := range []float64{1, 3, 5} {
		if got := sub.Interest(NodeID(i)); !almost(got, want) {
			t.Errorf("sub.Interest(%d) = %v, want %v", i, got, want)
		}
	}
	out, in, ok := sub.Tau(0, 1) // old edge {0,2}
	if !ok || !almost(out, 0.1) || !almost(in, 0.2) {
		t.Errorf("sub.Tau(0,1) = (%v,%v,%v), want (0.1,0.2,true)", out, in, ok)
	}
	if sub.Degree(2) != 0 {
		t.Errorf("old node 4 should be isolated in sub, degree %d", sub.Degree(2))
	}
}

func TestBuilderDuplicateEdgeMerging(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 0.5, 0.25)
	b.AddEdge(1, 0, 0.75, 1.5) // reversed orientation: τ_{1,0} += 0.75, τ_{0,1} += 1.5
	b.AddArc(0, 1, 0.5)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (duplicates must merge)", g.M())
	}
	out, in, ok := g.Tau(0, 1)
	if !ok || !almost(out, 0.5+1.5+0.5) || !almost(in, 0.25+0.75) {
		t.Errorf("Tau(0,1) = (%v,%v,%v), want (2.5,1,true)", out, in, ok)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// buildByMap is Build as it ran before the counting sort: one map entry
// per undirected edge summing both directions in arc order, keys sorted
// by (lo, hi). Build must match it bit for bit.
func buildByMap(b *Builder) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	type key struct{ lo, hi NodeID }
	type pair struct{ loHi, hiLo float64 } // τ_{lo,hi}, τ_{hi,lo}
	edges := make(map[key]*pair, len(b.src)/2)
	for p := range b.src {
		i, j, t := b.src[p], b.dst[p], b.tau[p]
		k, forward := key{i, j}, true
		if j < i {
			k, forward = key{j, i}, false
		}
		e := edges[k]
		if e == nil {
			e = &pair{}
			edges[k] = e
		}
		if forward {
			e.loHi += t
		} else {
			e.hiLo += t
		}
	}
	keys := make([]key, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, c int) bool {
		if keys[a].lo != keys[c].lo {
			return keys[a].lo < keys[c].lo
		}
		return keys[a].hi < keys[c].hi
	})
	off := make([]int64, b.n+1)
	for _, k := range keys {
		off[k.lo+1]++
		off[k.hi+1]++
	}
	for i := 1; i <= b.n; i++ {
		off[i] += off[i-1]
	}
	nbr := make([]NodeID, off[b.n])
	wOut := make([]float64, off[b.n])
	wIn := make([]float64, off[b.n])
	cursor := append([]int64(nil), off[:b.n]...)
	place := func(i, j NodeID, out, in float64) {
		p := cursor[i]
		cursor[i]++
		nbr[p], wOut[p], wIn[p] = j, out, in
	}
	for _, k := range keys {
		e := edges[k]
		place(k.lo, k.hi, e.loHi, e.hiLo)
		place(k.hi, k.lo, e.hiLo, e.loHi)
	}
	g := &Graph{interest: append([]float64(nil), b.interest...), off: off, nbr: nbr, wOut: wOut, wIn: wIn}
	g.fuse()
	return g, nil
}

// TestBuildMatchesMap: on random multigraphs whose repeated arcs arrive in
// both orientations through AddArc, AddEdge and AddEdgeSym, with signed
// zeros and weights whose sums depend on their order, Build encodes to
// the same bytes and fuses the same weight bits as buildByMap.
func TestBuildMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	special := []float64{0, math.Copysign(0, -1), 0.1, 0.7, -0.3, 1e-17, 3.25}
	tau := func() float64 {
		if rng.Intn(2) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.Float64()
	}
	encode := func(g *Graph) []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, g); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(12)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			b.SetInterest(NodeID(i), tau())
		}
		for ops := rng.Intn(5 * n); n > 1 && ops > 0; ops-- {
			i, j := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if i == j {
				continue
			}
			for dup := 1 + rng.Intn(3); dup > 0; dup-- {
				switch rng.Intn(3) {
				case 0:
					b.AddArc(i, j, tau())
				case 1:
					b.AddEdge(i, j, tau(), tau())
				default:
					b.AddEdgeSym(i, j, tau())
				}
				i, j = j, i
			}
		}
		want, err := buildByMap(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(got), encode(want)) {
			t.Fatalf("trial %d (n=%d, %d arcs): Encode bytes differ from the map build", trial, n, len(b.src))
		}
		_, _, gw, _ := got.FusedCSR()
		_, _, ww, _ := want.FusedCSR()
		for p := range ww {
			if math.Float64bits(gw[p]) != math.Float64bits(ww[p]) {
				t.Fatalf("trial %d: fused weight %d = %v, map build %v", trial, p, gw[p], ww[p])
			}
		}
	}
}

// TestBuildRowsSorted: Build lays every row out in strictly ascending
// neighbor order without sorting rows, whatever the insertion order,
// orientation and duplication of the arcs, and sums duplicates onto the
// right entries.
func TestBuildRowsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type arc struct {
		i, j NodeID
		tau  float64
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		var arcs []arc
		for e := rng.Intn(4 * n); e > 0; e-- {
			i, j := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if i == j {
				continue
			}
			arcs = append(arcs, arc{i, j, float64(rng.Intn(64)) / 8})
			for dup := rng.Intn(3); dup > 0; dup-- { // either orientation
				if rng.Intn(2) == 0 {
					i, j = j, i
				}
				arcs = append(arcs, arc{i, j, float64(rng.Intn(64)) / 8})
			}
		}
		rng.Shuffle(len(arcs), func(a, c int) { arcs[a], arcs[c] = arcs[c], arcs[a] })
		b := NewBuilder(n)
		want := make(map[[2]NodeID]float64) // τ_{i,j} summed over the arcs i→j
		edges := make(map[[2]NodeID]bool)   // undirected edges as (lo, hi)
		for _, a := range arcs {
			b.AddArc(a.i, a.j, a.tau)
			want[[2]NodeID{a.i, a.j}] += a.tau
			edges[[2]NodeID{min(a.i, a.j), max(a.i, a.j)}] = true
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if g.M() != len(edges) {
			t.Fatalf("trial %d: M = %d, want %d", trial, g.M(), len(edges))
		}
		for i := NodeID(0); int(i) < n; i++ {
			nbrs, out, _ := g.Edges(i)
			for p, u := range nbrs {
				if p > 0 && nbrs[p-1] >= u {
					t.Fatalf("trial %d: row %d not strictly ascending: %v", trial, i, nbrs)
				}
				if w := want[[2]NodeID{i, u}]; out[p] != w {
					t.Fatalf("trial %d: τ(%d,%d) = %v, want %v", trial, i, u, out[p], w)
				}
			}
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0, 1, 1) // self-loop
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted a self-loop")
	}
	b = NewBuilder(2)
	b.AddEdge(0, 5, 1, 1) // out of range
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted an out-of-range edge")
	}
	b = NewBuilder(2)
	b.SetInterest(0, math.NaN())
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted a NaN interest score")
	}
}
