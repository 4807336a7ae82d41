package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// codecGraph builds a small irregular graph with asymmetric weights,
// isolated nodes and a duplicate (summed) edge — the shapes the codec must
// carry faithfully.
func codecGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(6)
	for i := 0; i < 6; i++ {
		b.SetInterest(NodeID(i), float64(i)*0.75)
	}
	b.AddEdge(0, 1, 0.25, 0.5)
	b.AddEdge(1, 2, 1, 0)
	b.AddEdge(0, 2, 2, 3)
	b.AddEdge(0, 1, 0.25, 0.25) // duplicate: sums with the first
	// nodes 4, 5 isolated; node 3 pendant
	b.AddEdgeSym(2, 3, 0.125)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func roundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	checkExactSize(t, out)
	return out
}

func TestCodecRoundTripIdentity(t *testing.T) {
	g := codecGraph(t)
	out := roundTrip(t, g)
	if !reflect.DeepEqual(g, out) {
		t.Errorf("round trip not identity:\n in: %+v\nout: %+v", g, out)
	}
}

func TestCodecEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	out := roundTrip(t, g)
	if out.N() != 0 || out.M() != 0 {
		t.Errorf("empty graph round trip: N=%d M=%d", out.N(), out.M())
	}
}

// TestCodecRoundTripGenerated quickchecks Encode→Decode identity over
// generated ER and PA instances across sizes and seeds. The generators
// live one package up, so the instances are rebuilt here from random
// edge lists with the same shape variety.
func TestCodecRoundTripGenerated(t *testing.T) {
	// Deterministic pseudo-random edge lists without importing gen (which
	// would create an import cycle gen → graph → gen in tests).
	next := uint64(12345)
	rand := func(n int) int {
		next = next*6364136223846793005 + 1442695040888963407
		return int((next >> 33) % uint64(n))
	}
	for _, n := range []int{1, 2, 17, 64, 301} {
		for trial := 0; trial < 4; trial++ {
			b := NewBuilder(n)
			for i := 0; i < n; i++ {
				b.SetInterest(NodeID(i), float64(rand(1000))/64)
			}
			m := rand(3*n + 1)
			for e := 0; e < m && n > 1; e++ {
				i, j := rand(n), rand(n)
				if i == j {
					continue
				}
				b.AddEdge(NodeID(i), NodeID(j), float64(rand(256))/128, float64(rand(256))/128)
			}
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			out := roundTrip(t, g)
			if !reflect.DeepEqual(g, out) {
				t.Fatalf("n=%d trial=%d: round trip not identity", n, trial)
			}
		}
	}
}

// TestCodecTruncated: every proper prefix of a valid encoding errors
// cleanly — no panics, no nil-error garbage graphs.
func TestCodecTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, codecGraph(t)); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for cut := 0; cut < len(blob); cut++ {
		if _, err := Decode(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("truncation at byte %d/%d decoded without error", cut, len(blob))
		}
	}
}

func TestCodecCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, codecGraph(t)); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	corrupt := func(name string, mutate func(b []byte)) {
		c := append([]byte(nil), blob...)
		mutate(c)
		if _, err := Decode(bytes.NewReader(c)); err == nil {
			t.Errorf("%s: corrupt input decoded without error", name)
		}
	}
	corrupt("bad magic", func(b []byte) { b[0] = 'X' })
	corrupt("future version", func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 99) })
	corrupt("huge node count", func(b []byte) { binary.LittleEndian.PutUint64(b[8:], 1<<40) })
	corrupt("odd nnz", func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 7) })
	corrupt("nnz beyond payload", func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 1<<20) })
	corrupt("NaN interest", func(b []byte) {
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(math.NaN()))
	})
	// Out-of-range neighbor id in the adjacency array: interest (6×8) and
	// offsets (7×8) follow the 24-byte header; the graph has 2·M = 8
	// adjacency entries.
	nbrOff := 24 + 6*8 + 7*8
	corrupt("neighbor out of range", func(b []byte) { binary.LittleEndian.PutUint32(b[nbrOff:], 1<<30) })
	corrupt("asymmetric weights", func(b []byte) {
		wOutOff := nbrOff + 8*4
		binary.LittleEndian.PutUint64(b[wOutOff:], math.Float64bits(42))
	})
}

// checkExactSize fails unless every array of g has cap == len, so that
// ResidentBytes, a sum of lengths, is the arrays' true footprint.
func checkExactSize(t *testing.T, g *Graph) {
	t.Helper()
	arrays := []struct {
		name     string
		len, cap int
	}{
		{"interest", len(g.interest), cap(g.interest)},
		{"off", len(g.off), cap(g.off)},
		{"nbr", len(g.nbr), cap(g.nbr)},
		{"wOut", len(g.wOut), cap(g.wOut)},
		{"wIn", len(g.wIn), cap(g.wIn)},
		{"wSum", len(g.wSum), cap(g.wSum)},
	}
	for _, a := range arrays {
		if a.cap != a.len {
			t.Errorf("%s: cap %d, len %d", a.name, a.cap, a.len)
		}
	}
}

// TestCodecRoundTripMultiChunk: arrays longer than one read chunk grow
// while they are read, and still decode identical and exact-size.
func TestCodecRoundTripMultiChunk(t *testing.T) {
	n := chunkElems + 5 // interest, offsets and adjacency all span chunks
	ring := make([][2]NodeID, n)
	for i := range ring {
		ring[i] = [2]NodeID{NodeID(i), NodeID((i + 1) % n)}
	}
	g, err := FromEdgeList(n, nil, ring, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, roundTrip(t, g)) {
		t.Fatal("round trip not identity")
	}
}

// TestCodecHostileCountAllocation: a header claiming 2^30 adjacency
// entries, followed by only 1 MiB of them, is rejected after committing
// memory in proportion to the bytes that arrived, not to the claim.
func TestCodecHostileCountAllocation(t *testing.T) {
	blob := append([]byte(nil), codecMagic[:]...)
	blob = binary.LittleEndian.AppendUint32(blob, codecVersion)
	blob = binary.LittleEndian.AppendUint64(blob, 0)     // n
	blob = binary.LittleEndian.AppendUint64(blob, 1<<30) // nnz
	blob = binary.LittleEndian.AppendUint64(blob, 0)     // off[0]
	blob = append(blob, make([]byte, 1<<20)...)          // adjacency, cut short
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated hostile stream decoded without error")
	}
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("allocated %.2f MiB", alloc)
	if alloc >= 3 {
		t.Fatalf("decoding 1 MiB of claimed adjacency allocated %.2f MiB, want < 3", alloc)
	}
}

func TestReadEdgeListJSON(t *testing.T) {
	doc := `{
	  "nodes": 4,
	  "interest": [0.5, 1.0, 0.0, 2.0],
	  "edges": [
	    {"src": 0, "dst": 1, "tau": 1.5},
	    {"src": 1, "dst": 2, "tau_out": 0.3, "tau_in": 0.7},
	    {"src": 2, "dst": 3}
	  ]
	}`
	g, err := ReadEdgeListJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("N=%d M=%d, want 4, 3", g.N(), g.M())
	}
	if g.Interest(3) != 2 {
		t.Errorf("Interest(3) = %v, want 2", g.Interest(3))
	}
	if out, in, ok := g.Tau(0, 1); !ok || out != 1.5 || in != 1.5 {
		t.Errorf("Tau(0,1) = %v,%v,%v want symmetric 1.5", out, in, ok)
	}
	if out, in, ok := g.Tau(1, 2); !ok || out != 0.3 || in != 0.7 {
		t.Errorf("Tau(1,2) = %v,%v,%v want 0.3/0.7", out, in, ok)
	}
	if out, in, ok := g.Tau(2, 3); !ok || out != 1 || in != 1 {
		t.Errorf("Tau(2,3) = %v,%v,%v want default symmetric 1", out, in, ok)
	}
	// The decoded graph must round-trip the binary codec unchanged.
	if rt := roundTrip(t, g); !reflect.DeepEqual(g, rt) {
		t.Error("edge-list graph does not round-trip the binary codec")
	}
}

func TestReadEdgeListJSONErrors(t *testing.T) {
	cases := map[string]string{
		"not json":            `]`,
		"unknown field":       `{"nodes": 1, "bogus": true}`,
		"negative nodes":      `{"nodes": -1}`,
		"interest mismatch":   `{"nodes": 2, "interest": [1.0]}`,
		"edge out of range":   `{"nodes": 2, "edges": [{"src": 0, "dst": 5}]}`,
		"self loop":           `{"nodes": 2, "edges": [{"src": 1, "dst": 1}]}`,
		"tau conflict":        `{"nodes": 2, "edges": [{"src": 0, "dst": 1, "tau": 1, "tau_in": 2}]}`,
		"non-finite interest": `{"nodes": 1, "interest": [1e999]}`,
	}
	for name, doc := range cases {
		if _, err := ReadEdgeListJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
