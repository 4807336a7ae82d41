package store

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"waso/internal/gen"
	"waso/internal/graph"
)

// BenchmarkRecover boots churn-durable's graph from the in-memory FS: the
// version-0 snapshot of ER n=100k avgdeg 8 plus 16 WAL records (the
// serving benchmark's boot image) or 255 (the most the default snapshot
// cadence leaves), each a churn-shaped 4-op batch. An op is one Recover
// of a fresh store: snapshot decode plus replay.
func BenchmarkRecover(b *testing.B) {
	g, err := gen.Spec{Kind: "er", N: 100_000, AvgDeg: 8, Seed: 1}.Build()
	if err != nil {
		b.Fatal(err)
	}
	history := churnRecords(g, DefaultSnapshotEvery-1)
	for _, records := range []int{16, DefaultSnapshotEvery - 1} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			fs := newMemFS()
			st, err := Open("data", Options{FS: fs, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Create("g", g); err != nil {
				b.Fatal(err)
			}
			for i, muts := range history[:records] {
				if _, err := st.Append("g", uint64(i+1), muts); err != nil {
					b.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				st, err := Open("data", Options{FS: fs})
				if err != nil {
					b.Fatal(err)
				}
				recs, err := st.Recover()
				if err != nil || len(recs) != 1 || recs[0].Records != records {
					b.Fatalf("recovered %+v, %v; want one graph with %d records", recs, err, records)
				}
				st.Close()
			}
		})
	}
}

// churnRecords draws count batches in churn-durable's shape (one
// set_interest, add_edge, del_edge and set_tau op on distinct edges) that
// are valid in order against g: changed holds the presence of every edge
// an earlier batch added or deleted.
func churnRecords(g *graph.Graph, count int) [][]graph.Mutation {
	r := rand.New(rand.NewPCG(1, 2))
	n := g.N()
	changed := make(map[[2]graph.NodeID]bool)
	present := func(k [2]graph.NodeID) bool {
		if p, ok := changed[k]; ok {
			return p
		}
		return g.HasEdge(k[0], k[1])
	}
	out := make([][]graph.Mutation, count)
	for i := range out {
		used := make(map[[2]graph.NodeID]bool)
		// draw returns an unused edge that is present (a random node's
		// random neighbour) or absent (a random pair), as asked.
		draw := func(want bool) [2]graph.NodeID {
			for {
				u, v := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
				if want {
					nb := g.Neighbors(u)
					if len(nb) == 0 {
						continue
					}
					v = nb[r.IntN(len(nb))]
				}
				k := [2]graph.NodeID{min(u, v), max(u, v)}
				if u != v && !used[k] && present(k) == want {
					used[k] = true
					return k
				}
			}
		}
		add, del, set := draw(false), draw(true), draw(true)
		out[i] = []graph.Mutation{
			{Op: graph.MutSetInterest, U: graph.NodeID(r.IntN(n)), Eta: r.Float64()},
			{Op: graph.MutAddEdge, U: add[0], V: add[1], TauOut: r.Float64(), TauIn: r.Float64()},
			{Op: graph.MutDelEdge, U: del[0], V: del[1]},
			{Op: graph.MutSetTau, U: set[0], V: set[1], TauOut: r.Float64(), TauIn: r.Float64()},
		}
		changed[add], changed[del] = true, false
	}
	return out
}
