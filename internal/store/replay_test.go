package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"waso/internal/graph"
)

// TestRecoverRecordDoesNotApply: a record that passes its checksum but
// whose ops fail against the state its predecessors leave fails recovery
// with *CorruptLogError at that record's offset, wherever it sits in the
// log. What follows it (a corrupt frame, a torn tail) changes neither the
// error nor the WAL bytes: replay stops at the first record that does not
// apply, before it looks further.
func TestRecoverRecordDoesNotApply(t *testing.T) {
	const n = 8
	g := testGraph(t, n)
	batches := testBatches(n)
	states := applyAll(t, g, batches)
	// Op 0 applies and op 1 deletes an edge no state has, so the message
	// names op 1 of the record, not an op of a longer batch.
	bad := []graph.Mutation{
		{Op: graph.MutSetInterest, U: 1, Eta: 3.5},
		{Op: graph.MutDelEdge, U: 0, V: 7},
	}
	cases := []struct {
		name string
		at   int    // valid records before the bad one
		tail string // "", "crc" (the record after the bad one is corrupt) or "torn"
	}{
		{"first", 0, ""},
		{"middle", 2, ""},
		{"last", len(batches), ""},
		{"middle, corrupt record after", 2, "crc"},
		{"middle, torn tail", 2, "torn"},
		{"last, torn tail", len(batches), "torn"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := newMemFS()
			st := openMem(t, fs, Options{SnapshotEvery: -1})
			if err := st.Create("g", g); err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(st.graphDir("g"), walName)
			st.Close()

			// Records 1..at, the bad record at+1, then the remaining batches.
			var wal []byte
			var badOff int
			frame := func(seq int, muts []graph.Mutation) {
				var err error
				if wal, err = EncodeRecord(wal, uint64(seq), muts); err != nil {
					t.Fatal(err)
				}
			}
			for i, muts := range batches[:tc.at] {
				frame(i+1, muts)
			}
			badOff = len(wal)
			frame(tc.at+1, bad)
			afterBad := len(wal)
			for i, muts := range batches[tc.at:] {
				frame(tc.at+2+i, muts)
			}
			switch tc.tail {
			case "crc":
				wal[afterBad+frameHeader+2] ^= 0xFF
			case "torn":
				next, err := EncodeRecord(nil, 99, batches[0])
				if err != nil {
					t.Fatal(err)
				}
				wal = append(wal, next[:len(next)-3]...)
			}
			fs.putBytes(walPath, wal)

			_, _, aerr := states[tc.at].ApplyMutations(bad)
			if aerr == nil {
				t.Fatal("bad record applies")
			}
			want := fmt.Sprintf("store: record %d does not apply: %v", tc.at+1, aerr)
			st2 := openMem(t, fs, Options{})
			_, err := st2.Recover()
			var cle *CorruptLogError
			if !errors.As(err, &cle) {
				t.Fatalf("recovery error = %v, want *CorruptLogError", err)
			}
			if cle.Path != walPath || cle.Offset != int64(badOff) || cle.Err.Error() != want {
				t.Fatalf("got %s at offset %d of %s, want %q at offset %d", cle.Err, cle.Offset, cle.Path, want, badOff)
			}
			if !bytes.Equal(fs.snapshotBytes(walPath), wal) {
				t.Fatal("failed recovery changed the WAL bytes")
			}
		})
	}
}

// TestBatchedReplayMatchesSequential: recovering a random valid history
// from snapshot + WAL gives what one ApplyMutations call per record gives,
// bit for bit. The histories append nodes that later records connect,
// add edges that later records delete or delete edges they add back with
// their old weights, set weights that later records set back, draw
// weights and interests from a small set that includes +0 and -0, and
// start the WAL with records the snapshot already covers.
func TestBatchedReplayMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 1))
	for trial := 0; trial < 40; trial++ {
		h := newHistory(rng, 2+rng.IntN(12))
		m := 1 + rng.IntN(300)
		if trial%8 == 0 {
			m = 300
		}
		batches := make([][]graph.Mutation, m)
		for i := range batches {
			batches[i] = h.next(1 + rng.IntN(6))
		}
		states := applyAll(t, h.g, batches)
		snap := rng.IntN(m + 1)      // the snapshot covers records 1..snap
		head := 1 + rng.IntN(snap+1) // the WAL holds records head..m

		fs := newMemFS()
		st := openMem(t, fs, Options{SnapshotEvery: -1})
		if err := st.Create("g", h.g); err != nil {
			t.Fatal(err)
		}
		if snap > 0 {
			if err := st.Snapshot("g", states[snap], uint64(snap)); err != nil {
				t.Fatal(err)
			}
		}
		walPath := filepath.Join(st.graphDir("g"), walName)
		st.Close()
		var wal []byte
		for seq := head; seq <= m; seq++ {
			var err error
			if wal, err = EncodeRecord(wal, uint64(seq), batches[seq-1]); err != nil {
				t.Fatal(err)
			}
		}
		fs.putBytes(walPath, wal)

		st2 := openMem(t, fs, Options{})
		recs, err := st2.Recover()
		if err != nil {
			t.Fatalf("trial %d (%d records, snapshot at %d, WAL from %d): %v", trial, m, snap, head, err)
		}
		r := recs[0]
		if r.Version != uint64(m) || r.Records != m-snap || r.TruncatedBytes != 0 {
			t.Fatalf("trial %d: recovered version %d, %d records, %d bytes cut; want %d, %d, 0",
				trial, r.Version, r.Records, r.TruncatedBytes, m, m-snap)
		}
		want := states[m]
		if !bytes.Equal(encodeGraph(t, r.Graph), encodeGraph(t, want)) {
			t.Fatalf("trial %d (%d records, snapshot at %d): recovered graph differs from sequential replay", trial, m, snap)
		}
		_, _, gotW, _ := r.Graph.FusedCSR()
		_, _, wantW, _ := want.FusedCSR()
		for p := range wantW {
			if math.Float64bits(gotW[p]) != math.Float64bits(wantW[p]) {
				t.Fatalf("trial %d: fused weight %d = %v, want %v", trial, p, gotW[p], wantW[p])
			}
		}
		st2.Close()
	}
}

// edgeKey is an undirected edge as (lo, hi).
type edgeKey [2]graph.NodeID

// history draws mutation records that are valid, in order, against the
// graph they evolve, tracking the running node count and edge weights.
type history struct {
	rng   *rand.Rand
	g     *graph.Graph           // the base graph
	n     int                    // running node count
	w     map[edgeKey][2]float64 // present edges: (τ_lo,hi, τ_hi,lo)
	prev  map[edgeKey][2]float64 // an edge's weights before its last set_tau
	keys  []edgeKey              // every edge added so far; deleted ones are dropped on a pick
	added edgeKey                // the last edge added
	gone  edgeKey                // the last edge deleted, and its weights
	goneW [2]float64
}

// replayValues are the weights and interests a history draws: a small set,
// so that set-backs and re-adds land on earlier values, with both zeros.
var replayValues = []float64{math.Copysign(0, -1), 0, 0.5, 1, 2.25}

func newHistory(rng *rand.Rand, n int) *history {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.SetInterest(graph.NodeID(i), replayValues[rng.IntN(len(replayValues))])
	}
	for e := rng.IntN(2 * n); e > 0; e-- {
		if u, v := graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n)); u != v {
			b.AddEdge(u, v, replayValues[rng.IntN(len(replayValues))], replayValues[rng.IntN(len(replayValues))])
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	h := &history{rng: rng, g: g, n: n, w: make(map[edgeKey][2]float64), prev: make(map[edgeKey][2]float64)}
	for i := graph.NodeID(0); int(i) < n; i++ {
		nbrs, out, in := g.Edges(i)
		for p, u := range nbrs {
			if u > i {
				k := edgeKey{i, u}
				h.w[k] = [2]float64{out[p], in[p]}
				h.keys = append(h.keys, k)
			}
		}
	}
	return h
}

func (h *history) value() float64 { return replayValues[h.rng.IntN(len(replayValues))] }

// node draws a node, the newest one a quarter of the time, so appended
// nodes are referenced soon after they appear.
func (h *history) node() graph.NodeID {
	if h.rng.IntN(4) == 0 {
		return graph.NodeID(h.n - 1)
	}
	return graph.NodeID(h.rng.IntN(h.n))
}

// pick draws a present edge: the last one added half the time, else any.
func (h *history) pick() (edgeKey, bool) {
	if _, ok := h.w[h.added]; ok && h.rng.IntN(2) == 0 {
		return h.added, true
	}
	for len(h.keys) > 0 {
		i := h.rng.IntN(len(h.keys))
		if _, ok := h.w[h.keys[i]]; ok {
			return h.keys[i], true
		}
		h.keys[i] = h.keys[len(h.keys)-1]
		h.keys = h.keys[:len(h.keys)-1]
	}
	return edgeKey{}, false
}

// edgeOp emits an edge op on k with weights w (as τ_lo,hi, τ_hi,lo) in a
// random orientation.
func (h *history) edgeOp(op graph.MutOpKind, k edgeKey, w [2]float64) graph.Mutation {
	if h.rng.IntN(2) == 0 {
		return graph.Mutation{Op: op, U: k[0], V: k[1], TauOut: w[0], TauIn: w[1]}
	}
	return graph.Mutation{Op: op, U: k[1], V: k[0], TauOut: w[1], TauIn: w[0]}
}

// next draws one record of nops ops and advances the model past it.
func (h *history) next(nops int) []graph.Mutation {
	muts := make([]graph.Mutation, 0, nops)
	for len(muts) < nops {
		switch op := h.rng.IntN(10); {
		case op == 0:
			muts = append(muts, graph.Mutation{Op: graph.MutSetInterest, U: graph.NodeID(h.n), Eta: h.value()})
			h.n++
		case op == 1:
			muts = append(muts, graph.Mutation{Op: graph.MutSetInterest, U: h.node(), Eta: h.value()})
		case op < 5: // add a new edge, or the last deleted one with its old weights
			u, v := h.node(), h.node()
			k, w := edgeKey{min(u, v), max(u, v)}, [2]float64{h.value(), h.value()}
			if h.rng.IntN(3) == 0 && h.gone != (edgeKey{}) {
				k, w = h.gone, h.goneW
			}
			if _, ok := h.w[k]; ok || k[0] == k[1] {
				continue
			}
			muts = append(muts, h.edgeOp(graph.MutAddEdge, k, w))
			h.w[k] = w
			h.keys = append(h.keys, k)
			h.added = k
		case op < 7:
			k, ok := h.pick()
			if !ok {
				continue
			}
			muts = append(muts, h.edgeOp(graph.MutDelEdge, k, [2]float64{}))
			h.gone, h.goneW = k, h.w[k]
			delete(h.w, k)
			delete(h.prev, k)
		default: // set_tau, half the time back to the weights before the last set
			k, ok := h.pick()
			if !ok {
				continue
			}
			w := [2]float64{h.value(), h.value()}
			if p, ok := h.prev[k]; ok && h.rng.IntN(2) == 0 {
				w = p
			}
			muts = append(muts, h.edgeOp(graph.MutSetTau, k, w))
			h.prev[k] = h.w[k]
			h.w[k] = w
		}
	}
	return muts
}
