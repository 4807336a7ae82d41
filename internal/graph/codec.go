package graph

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Binary codec: a versioned little-endian dump of the CSR arrays, so a
// long-lived server can ingest and cache graphs without rebuilding them
// edge by edge.
//
// Layout (all little-endian):
//
//	magic   [4]byte  "WASO"
//	version uint32   currently 1
//	n       uint64   node count
//	nnz     uint64   adjacency entries (2·M)
//	interest n × float64
//	off      (n+1) × int64
//	nbr      nnz × int32
//	wOut     nnz × float64
//	wIn      nnz × float64
//
// Decode re-validates the structure, so a corrupt or hostile stream yields
// an error, never a panic or an invalid Graph.

var codecMagic = [4]byte{'W', 'A', 'S', 'O'}

const codecVersion = 1

// maxCodecNodes bounds the node count Decode accepts; NodeID is int32.
const maxCodecNodes = math.MaxInt32

// Encode writes g in the versioned binary format.
func Encode(w io.Writer, g *Graph) error {
	if g == nil {
		return fmt.Errorf("graph: Encode nil graph")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(codecMagic[:]); err != nil {
		return err
	}
	hdr := []any{
		uint32(codecVersion),
		uint64(g.N()),
		uint64(len(g.nbr)),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, arr := range []any{g.interest, g.off, g.nbr, g.wOut, g.wIn} {
		if err := binary.Write(bw, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a graph written by Encode and validates it. Truncated or
// corrupt input returns an error. A hostile length field cannot force a
// large allocation: each array grows by doubling as its bytes arrive, so
// memory is committed at most ~2× as fast as input bytes arrive, and the
// decoded arrays are exact-size. Reading, validating and fusing each cost
// one O(n + nnz) pass.
func Decode(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: decode header: %w", noEOF(err))
	}
	if magic != codecMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic[:])
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("graph: decode version: %w", noEOF(err))
	}
	if version != codecVersion {
		return nil, fmt.Errorf("graph: unsupported codec version %d (want %d)", version, codecVersion)
	}
	var n, nnz uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("graph: decode node count: %w", noEOF(err))
	}
	if err := binary.Read(br, binary.LittleEndian, &nnz); err != nil {
		return nil, fmt.Errorf("graph: decode edge count: %w", noEOF(err))
	}
	if n > maxCodecNodes {
		return nil, fmt.Errorf("graph: node count %d exceeds limit %d", n, maxCodecNodes)
	}
	if nnz%2 != 0 {
		return nil, fmt.Errorf("graph: odd adjacency entry count %d", nnz)
	}
	g := &Graph{}
	var err error
	if g.interest, err = readFloats(br, n, "interest"); err != nil {
		return nil, err
	}
	if g.off, err = readInt64s(br, n+1, "offsets"); err != nil {
		return nil, err
	}
	if g.nbr, err = readInt32s(br, nnz, "adjacency"); err != nil {
		return nil, err
	}
	if g.wOut, err = readFloats(br, nnz, "out-weights"); err != nil {
		return nil, err
	}
	if g.wIn, err = readFloats(br, nnz, "in-weights"); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: decoded graph invalid: %w", err)
	}
	// The fused weight array is derived state, not part of the wire format.
	g.fuse()
	return g, nil
}

// chunkElems is the most elements one read takes.
const chunkElems = 1 << 16

// readArray reads count little-endian elements of elemSize bytes each, a
// chunk of at most chunkElems at a time, decoding each chunk into its slot
// of the result with dec (len(dst)·elemSize == len(src)). The result
// starts with one chunk's capacity and doubles, capped at count, only
// after a chunk that does not fit has arrived. So a hostile count cannot
// force a large allocation, memory is committed at most ~2× as fast as
// bytes arrive (plus the chunk buffer), each element is copied O(1) times,
// and a complete array has cap == len == count.
func readArray[T any](r io.Reader, count uint64, elemSize int, field string, dec func(dst []T, src []byte)) ([]T, error) {
	out := make([]T, 0, min(count, chunkElems))
	buf := make([]byte, cap(out)*elemSize)
	for rem := count; rem > 0; {
		k := int(min(rem, chunkElems))
		chunk := buf[:k*elemSize]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("graph: decode %s: %w", field, noEOF(err))
		}
		if len(out)+k > cap(out) {
			grown := make([]T, len(out), min(2*uint64(cap(out)), count))
			copy(grown, out)
			out = grown
		}
		out = out[:len(out)+k]
		dec(out[len(out)-k:], chunk)
		rem -= uint64(k)
	}
	return out, nil
}

func readFloats(r io.Reader, count uint64, field string) ([]float64, error) {
	return readArray(r, count, 8, field, func(dst []float64, src []byte) {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	})
}

func readInt64s(r io.Reader, count uint64, field string) ([]int64, error) {
	return readArray(r, count, 8, field, func(dst []int64, src []byte) {
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	})
}

func readInt32s(r io.Reader, count uint64, field string) ([]int32, error) {
	return readArray(r, count, 4, field, func(dst []int32, src []byte) {
		for i := range dst {
			dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
		}
	})
}

// noEOF maps io.EOF to io.ErrUnexpectedEOF: inside a fixed-layout decode,
// running out of bytes is always truncation, never a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ---------------------------------------------------------------------------
// JSON edge-list ingestion

// EdgeListJSON is the JSON upload format for externally-built graphs:
//
//	{
//	  "nodes": 4,
//	  "interest": [0.5, 1.0, 0.0, 2.0],
//	  "edges": [
//	    {"src": 0, "dst": 1, "tau": 1.0},
//	    {"src": 1, "dst": 2, "tau_out": 0.3, "tau_in": 0.7}
//	  ]
//	}
//
// "interest" is optional (defaults to all zeros, length must equal "nodes"
// when present). Per edge, "tau" sets both directions symmetrically;
// "tau_out"/"tau_in" set τ_{src,dst} and τ_{dst,src} independently
// (a missing direction is 0); an edge with no tau field defaults to the
// symmetric weight 1. Duplicate edges sum, matching Builder semantics.
type EdgeListJSON struct {
	Nodes    int            `json:"nodes"`
	Interest []float64      `json:"interest"`
	Edges    []EdgeListEdge `json:"edges"`
}

// EdgeListEdge is one undirected edge of an EdgeListJSON document.
type EdgeListEdge struct {
	Src    NodeID   `json:"src"`
	Dst    NodeID   `json:"dst"`
	Tau    *float64 `json:"tau"`
	TauOut *float64 `json:"tau_out"`
	TauIn  *float64 `json:"tau_in"`
}

// ReadEdgeListJSON decodes an EdgeListJSON document into a validated Graph.
// Unknown fields are rejected so typos fail loudly.
func ReadEdgeListJSON(r io.Reader) (*Graph, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc EdgeListJSON
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("graph: edge-list JSON: %w", err)
	}
	return doc.Build()
}

// Build assembles the document into a Graph via a Builder.
func (doc EdgeListJSON) Build() (*Graph, error) {
	if doc.Nodes < 0 {
		return nil, fmt.Errorf("graph: edge list with negative node count %d", doc.Nodes)
	}
	if doc.Interest != nil && len(doc.Interest) != doc.Nodes {
		return nil, fmt.Errorf("graph: edge list has %d interest scores for %d nodes", len(doc.Interest), doc.Nodes)
	}
	b := NewBuilder(doc.Nodes)
	for i, eta := range doc.Interest {
		b.SetInterest(NodeID(i), eta)
	}
	for p, e := range doc.Edges {
		if e.Tau != nil && (e.TauOut != nil || e.TauIn != nil) {
			return nil, fmt.Errorf("graph: edge %d sets both tau and tau_out/tau_in", p)
		}
		var out, in float64
		switch {
		case e.Tau != nil:
			out, in = *e.Tau, *e.Tau
		case e.TauOut != nil || e.TauIn != nil:
			if e.TauOut != nil {
				out = *e.TauOut
			}
			if e.TauIn != nil {
				in = *e.TauIn
			}
		default:
			out, in = 1, 1
		}
		b.AddEdge(e.Src, e.Dst, out, in)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graph: edge-list build: %w", err)
	}
	return g, nil
}
