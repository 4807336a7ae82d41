package graph

import (
	"bytes"
	"testing"
)

// encodeSeed builds a small valid graph and returns its wire bytes.
func encodeSeed(t *testing.F, n int, interest []float64, edges [][2]NodeID, tau []float64) []byte {
	t.Helper()
	g, err := FromEdgeList(n, interest, edges, tau)
	if err != nil {
		t.Fatalf("building seed graph: %v", err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatalf("encoding seed graph: %v", err)
	}
	return buf.Bytes()
}

// FuzzDecode drives the binary codec with arbitrary bytes. Decode promises
// an error — never a panic, an unbounded allocation, or an invalid Graph —
// on corrupt input, and any accepted graph must be an encoding fixed
// point: re-encoding what Decode produced and decoding again yields
// byte-identical output. Validate is Decode's own acceptance check, so an
// accepted graph is re-checked by the independent validateByLookup.
func FuzzDecode(f *testing.F) {
	path := encodeSeed(f, 4,
		[]float64{0.5, 1, 0, 2},
		[][2]NodeID{{0, 1}, {1, 2}, {2, 3}},
		[]float64{1, 0.5, 2})
	triangle := encodeSeed(f, 3,
		[]float64{1, 1, 1},
		[][2]NodeID{{0, 1}, {1, 2}, {0, 2}},
		nil)
	empty := encodeSeed(f, 0, nil, nil, nil)

	f.Add(path)
	f.Add(triangle)
	f.Add(empty)
	f.Add([]byte{})                            // no header at all
	f.Add([]byte("WASO"))                      // magic, then truncation
	f.Add(path[:len(path)/2])                  // mid-array truncation
	f.Add(append([]byte("OSAW"), path[4:]...)) // wrong magic
	corrupt := bytes.Clone(path)
	corrupt[len(corrupt)-1] ^= 0xff // flipped trailing weight byte
	f.Add(corrupt)
	hostile := bytes.Clone(path)
	for i := 12; i < 20; i++ { // node count field → absurdly large
		hostile[i] = 0xff
	}
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejection is the contract for corrupt input
		}
		if err := validateByLookup(g); err != nil {
			t.Fatalf("Decode accepted an invalid graph: %v", err)
		}
		var first bytes.Buffer
		if err := Encode(&first, g); err != nil {
			t.Fatalf("re-encoding a decoded graph: %v", err)
		}
		g2, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded graph: %v", err)
		}
		var second bytes.Buffer
		if err := Encode(&second, g2); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encode∘decode is not a fixed point: %d vs %d bytes", first.Len(), second.Len())
		}
	})
}
