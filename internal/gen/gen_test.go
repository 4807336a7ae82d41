package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"waso/internal/graph"
)

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(300, 0.03, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.N() != 300 {
		t.Fatalf("N = %d", g.N())
	}
	// E[M] = p·n(n−1)/2 ≈ 1345; allow a wide deterministic-seed margin.
	if g.M() < 1000 || g.M() > 1700 {
		t.Errorf("M = %d, far from expectation ≈1345", g.M())
	}
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if g.Interest(v) < 0.1 {
			t.Fatalf("interest %v below power-law xmin", g.Interest(v))
		}
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	g, err := ErdosRenyi(50, 0, 1)
	if err != nil || g.M() != 0 {
		t.Fatalf("p=0: M=%d err=%v", g.M(), err)
	}
	g, err = ErdosRenyi(30, 1, 1)
	if err != nil || g.M() != 30*29/2 {
		t.Fatalf("p=1: M=%d err=%v, want complete graph", g.M(), err)
	}
	if _, err := ErdosRenyi(10, 1.5, 1); err == nil {
		t.Error("p=1.5 accepted")
	}
	if _, err := ErdosRenyi(-1, 0.5, 1); err == nil {
		t.Error("negative n accepted")
	}
	g, err = ErdosRenyi(0, 0.5, 1)
	if err != nil || g.N() != 0 {
		t.Fatalf("n=0: %v", err)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	const n, m = 200, 3
	g, err := PreferentialAttachment(n, m, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Seed ring of m+1 nodes has m+1 edges; every later node adds m edges.
	wantM := (m + 1) + (n-(m+1))*m
	if g.M() != wantM {
		t.Errorf("M = %d, want %d", g.M(), wantM)
	}
	all := make([]graph.NodeID, n)
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	if !g.Connected(all) {
		t.Error("preferential-attachment graph must be connected")
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		if g.Degree(v) < m {
			t.Errorf("node %d has degree %d < m", v, g.Degree(v))
		}
	}
	// Preferential attachment must produce hubs well above the minimum.
	maxDeg := 0
	for v := graph.NodeID(0); int(v) < n; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 4*m {
		t.Errorf("max degree %d suspiciously small for a power-law graph", maxDeg)
	}
	if _, err := PreferentialAttachment(10, 0, 1); err == nil {
		t.Error("m=0 accepted")
	}
}

// fingerprint reduces a graph to one number (Σ η + Σ fused edge weight, the
// whole-graph willingness) for cheap equality probes.
func fingerprint(g *graph.Graph) float64 {
	total := 0.0
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		total += g.Interest(v)
		_, w := g.FusedEdges(v)
		for _, x := range w {
			total += x / 2 // each undirected edge appears twice
		}
	}
	return total
}

func TestDeterminism(t *testing.T) {
	a, err := PreferentialAttachment(150, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PreferentialAttachment(150, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() || fingerprint(a) != fingerprint(b) {
		t.Error("same seed produced different PA graphs")
	}
	c, err := PreferentialAttachment(150, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a) == fingerprint(c) {
		t.Error("different seeds produced identical PA graphs")
	}

	d, err := ErdosRenyi(150, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ErdosRenyi(150, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.M() != e.M() || fingerprint(d) != fingerprint(e) {
		t.Error("same seed produced different ER graphs")
	}
}

// encodeHash returns the hex sha256 of the spec's graph in the binary codec.
func encodeHash(t *testing.T, s Spec) string {
	t.Helper()
	g, err := s.Build()
	if err != nil {
		t.Fatalf("%v: %v", s, err)
	}
	h := sha256.New()
	if err := graph.Encode(h, g); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPinnedBits pins the generators' output bit for bit: structure, η and
// τ draws, and their order. The cmd/waso goldens would see a drift only
// through the solvers' W.
func TestPinnedBits(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: "powerlaw", N: 2000, AvgDeg: 6, Seed: 7}, "894d13f727a972b0d63b88464eac3b65b1c412f5fb48e356ae4325ac0c6d986b"},
		{Spec{Kind: "er", N: 3000, AvgDeg: 3, Seed: 9}, "6f5c5709afe97495eed37e1b3b5f3491297a53b5f6917e574fc6a3c2d2533694"},
	} {
		if got := encodeHash(t, tc.spec); got != tc.want {
			t.Errorf("%v: Encode sha256 = %s, want %s", tc.spec, got, tc.want)
		}
	}
}

// TestPreferentialAttachmentRingOnly: with m ≥ n−1 the graph is the seed
// ring alone, so it must equal the m = n−1 graph and cost no more than it,
// however large m is.
func TestPreferentialAttachmentRingOnly(t *testing.T) {
	huge := Spec{Kind: "powerlaw", N: 100, AvgDeg: 2e5, Seed: 3}
	want := encodeHash(t, Spec{Kind: "powerlaw", N: 100, AvgDeg: 198, Seed: 3})
	if got := encodeHash(t, huge); got != want {
		t.Errorf("avgdeg %g: Encode sha256 = %s, want the avgdeg 198 graph's %s", huge.AvgDeg, got, want)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := huge.Build(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Errorf("building a 100-node ring allocated %d bytes, want under 1 MiB", d)
	}
}

// TestPreferentialAttachmentAllocs: attaching a node allocates nothing, so
// building a power-law graph costs about as many allocations as the ER
// graph of the same size (the shared Builder's), not one or more per node.
func TestPreferentialAttachmentAllocs(t *testing.T) {
	allocs := func(kind string) float64 {
		s := Spec{Kind: kind, N: 20000, AvgDeg: 8, Seed: 1}
		return testing.AllocsPerRun(2, func() {
			if _, err := s.Build(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if pl, er := allocs("powerlaw"), allocs("er"); pl > 2*er {
		t.Errorf("powerlaw n=20000 build: %v allocs, want at most twice the ER build's %v", pl, er)
	}
}
