package solver

import (
	"math"
	"math/rand"
	"testing"

	"waso/internal/graph"
)

// randomMutationBatch builds one valid batch against g: η retunes, edge
// re-weights/deletes on existing edges, inserts on absent pairs.
func randomMutationBatch(rng *rand.Rand, g *graph.Graph) []graph.Mutation {
	n := g.N()
	var muts []graph.Mutation
	for i := 0; i < 1+rng.Intn(6); i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		switch {
		case rng.Intn(4) == 0:
			muts = append(muts, graph.Mutation{
				Op: graph.MutSetInterest, U: u, Eta: float64(rng.Intn(1000)) / 64})
		case u == v:
			continue
		case g.HasEdge(u, v):
			if rng.Intn(2) == 0 {
				muts = append(muts, graph.Mutation{Op: graph.MutDelEdge, U: u, V: v})
				// One del per edge per batch keeps the batch valid without
				// tracking running state; later dup dels would fail, so stop
				// touching this pair.
			} else {
				muts = append(muts, graph.Mutation{
					Op: graph.MutSetTau, U: u, V: v,
					TauOut: float64(rng.Intn(256)) / 128, TauIn: float64(rng.Intn(256)) / 128})
			}
		default:
			muts = append(muts, graph.Mutation{
				Op: graph.MutAddEdge, U: u, V: v,
				TauOut: float64(rng.Intn(256)) / 128, TauIn: float64(rng.Intn(256)) / 128})
		}
	}
	return muts
}

// applyOrSkip applies the batch; batches made invalid by intra-batch
// duplicates are skipped (the generator above is only approximately valid).
func applyOrSkip(g *graph.Graph, muts []graph.Mutation) (*graph.Graph, []graph.NodeID) {
	if len(muts) == 0 {
		return nil, nil
	}
	g2, touched, err := g.ApplyMutations(muts)
	if err != nil {
		return nil, nil
	}
	return g2, touched
}

// TestPrepRescore: a delta-updated Prep must be bit-identical to a fresh
// NewPrep of the mutated graph — ranking order, retained scores and prefix
// sums. This is what lets the serving layer refresh only the touched
// ranking entries on PATCH.
func TestPrepRescore(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		g := erInstance(t, 50+rng.Intn(200), 3, uint64(500+trial))
		p := testPrep(g)
		for round := 0; round < 5; round++ {
			g2, touched := applyOrSkip(g, randomMutationBatch(rng, g))
			if g2 == nil {
				continue
			}
			got := p.Rescore(testBind(g2), touched)
			want := testPrep(g2)
			if got.g != g2 || got.limit != 0 {
				t.Fatalf("trial %d round %d: rescored prep not a full prep for g2", trial, round)
			}
			if len(got.ranked) != len(want.ranked) {
				t.Fatalf("trial %d round %d: ranked len %d want %d",
					trial, round, len(got.ranked), len(want.ranked))
			}
			for i := range want.ranked {
				if got.ranked[i] != want.ranked[i] {
					t.Fatalf("trial %d round %d: ranked[%d] = %d want %d (touched=%v)",
						trial, round, i, got.ranked[i], want.ranked[i], touched)
				}
				if math.Float64bits(got.scores[i]) != math.Float64bits(want.scores[i]) {
					t.Fatalf("trial %d round %d: scores[%d] bits differ", trial, round, i)
				}
				if math.Float64bits(got.prefix[i+1]) != math.Float64bits(want.prefix[i+1]) {
					t.Fatalf("trial %d round %d: prefix[%d] bits differ", trial, round, i+1)
				}
			}
			g, p = g2, got
		}
	}
}

// TestPrepRescoreAppends covers node appends: the delta update must fold
// brand-new nodes into the ranking.
func TestPrepRescoreAppends(t *testing.T) {
	g := erInstance(t, 40, 3, 77)
	p := testPrep(g)
	n := graph.NodeID(g.N())
	g2, touched, err := g.ApplyMutations([]graph.Mutation{
		{Op: graph.MutSetInterest, U: n, Eta: 1e6}, // new global best
		{Op: graph.MutSetInterest, U: n + 1, Eta: -1e6},
		{Op: graph.MutAddEdge, U: n, V: 0, TauOut: 2, TauIn: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := p.Rescore(testBind(g2), touched)
	want := testPrep(g2)
	if got.ranked[0] != n || want.ranked[0] != n {
		t.Fatalf("appended hub should rank first: got %d want %d", got.ranked[0], want.ranked[0])
	}
	for i := range want.ranked {
		if got.ranked[i] != want.ranked[i] {
			t.Fatalf("ranked[%d] = %d want %d", i, got.ranked[i], want.ranked[i])
		}
	}
}

func TestPrepRescorePartialPanics(t *testing.T) {
	g := erInstance(t, 30, 3, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("Rescore on a partial Prep did not panic")
		}
	}()
	newPartialPrep(testBind(g), 5).Rescore(testBind(g), nil)
}

// TestRegionCacheCloneFor pins the surgical-invalidation acceptance
// criterion at the cache layer: after a τ edit, an entry whose ball
// excludes the touched nodes survives the clone and answers as a hit,
// while an entry whose ball contains them is dropped (counted invalidated)
// and re-extracts against the new graph.
func TestRegionCacheCloneFor(t *testing.T) {
	// A long path graph gives precise ball control: node i's radius-r ball
	// is [i-r, i+r].
	const n = 64
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.SetInterest(graph.NodeID(i), float64(i%7))
	}
	for i := 0; i < n-1; i++ {
		b.AddEdgeSym(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	rc := testCache(g, 16)
	const radius = 3
	if rc.Acquire(5, radius) == nil || rc.Acquire(40, radius) == nil {
		t.Fatal("path balls should fit the cap")
	}
	if got := rc.MaxRadius(); got != radius {
		t.Fatalf("MaxRadius = %d want %d", got, radius)
	}

	// Edit the edge {39,40}: touches nodes 39 and 40. Ball of start 5
	// ([2,8]) excludes them; ball of start 40 contains them.
	g2, touched, err := g.ApplyMutations([]graph.Mutation{
		{Op: graph.MutSetTau, U: 39, V: 40, TauOut: 9, TauIn: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	dist := make(map[graph.NodeID]int)
	for v, d := range g.HopDistances(touched, rc.MaxRadius()) {
		dist[v] = d
	}
	for v, d := range g2.HopDistances(touched, rc.MaxRadius()) {
		if old, ok := dist[v]; !ok || d < old {
			dist[v] = d
		}
	}
	keep := func(start graph.NodeID, radius int) bool {
		d, ok := dist[start]
		return !ok || d > radius
	}
	before := rc.Stats()
	nc := rc.CloneFor(testBind(g2), keep)

	st := nc.Stats()
	if st.Entries != 1 {
		t.Fatalf("clone entries = %d want 1 (start 5 kept, start 40 dropped)", st.Entries)
	}
	if st.Invalidated != before.Invalidated+1 {
		t.Fatalf("invalidated = %d want %d", st.Invalidated, before.Invalidated+1)
	}
	if st.Hits != before.Hits || st.Misses != before.Misses {
		t.Fatal("clone must carry hit/miss counters over unchanged")
	}
	if nc.Graph() != g2 {
		t.Fatal("clone not hosted on the mutated graph")
	}

	// The retained entry answers as a hit, bitwise equal to a fresh extract
	// from the new graph.
	h0 := nc.Stats().Hits
	r := nc.Acquire(5, radius)
	if r == nil || nc.Stats().Hits != h0+1 {
		t.Fatalf("retained entry was not a cache hit (hits %d -> %d)", h0, nc.Stats().Hits)
	}
	_, _, edge, node := testBind(g2).CSR()
	fresh := graph.NewRegionBuilder(g2).Extract(5, radius, g2.N(), edge, node)
	gotOff, gotNbr, gotW, gotEta := r.CSR()
	wantOff, wantNbr, wantW, wantEta := fresh.CSR()
	if len(gotNbr) != len(wantNbr) || len(gotEta) != len(wantEta) {
		t.Fatal("retained region shape differs from fresh extraction")
	}
	for i := range wantOff {
		if gotOff[i] != wantOff[i] {
			t.Fatal("retained region offsets differ")
		}
	}
	for i := range wantNbr {
		if gotNbr[i] != wantNbr[i] || math.Float64bits(gotW[i]) != math.Float64bits(wantW[i]) {
			t.Fatal("retained region adjacency differs")
		}
	}
	for i := range wantEta {
		if math.Float64bits(gotEta[i]) != math.Float64bits(wantEta[i]) {
			t.Fatal("retained region scores differ")
		}
	}

	// The dropped entry misses and re-extracts with the new weights.
	m0 := nc.Stats().Misses
	r40 := nc.Acquire(40, radius)
	if nc.Stats().Misses != m0+1 {
		t.Fatal("dropped entry did not re-extract")
	}
	_, _, w40, _ := r40.CSR()
	var sawNew bool
	for _, w := range w40 {
		if w == 18 { // τ_out+τ_in of the edited edge
			sawNew = true
		}
	}
	if !sawNew {
		t.Fatal("re-extracted region does not carry the edited tightness")
	}
}

// TestRegionCacheCloneForNegative: cached negatives survive a clone only
// while the auto cap is unchanged; a node-count change that moves the cap
// drops them.
func TestRegionCacheCloneForNegative(t *testing.T) {
	g := erInstance(t, 64, 6, 123)
	rc := testCache(g, 8)
	// Radius big enough that the ball blows autoRegionCap(64) = 16.
	if rc.Acquire(0, 20) != nil {
		t.Skip("ball unexpectedly fits the cap; pick a denser instance")
	}
	if st := rc.Stats(); st.NegativeHits != 0 || st.Entries != 1 {
		t.Fatalf("expected one cached negative, got %+v", st)
	}

	keepAll := func(graph.NodeID, int) bool { return true }
	nc := rc.CloneFor(testBind(g), keepAll) // same graph, same cap: negative survives
	if st := nc.Stats(); st.Entries != 1 || st.Invalidated != 0 {
		t.Fatalf("same-cap clone should keep the negative: %+v", st)
	}

	// Append 4 nodes: autoRegionCap(68) = 17 ≠ 16, so the negative drops.
	muts := make([]graph.Mutation, 4)
	for i := range muts {
		muts[i] = graph.Mutation{Op: graph.MutSetInterest, U: graph.NodeID(g.N() + i), Eta: 1}
	}
	g2, _, err := g.ApplyMutations(muts)
	if err != nil {
		t.Fatal(err)
	}
	nc2 := rc.CloneFor(testBind(g2), keepAll)
	if st := nc2.Stats(); st.Entries != 0 || st.Invalidated != 1 {
		t.Fatalf("cap-changing clone should drop the negative: %+v", st)
	}
}
