package graph_test

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"testing"

	"waso/internal/gen"
	"waso/internal/graph"
)

// Layer benchmarks for the graph paths a server runs before it can
// answer: decoding an upload or snapshot, rebuilding the graph after a
// write, and finding the cached regions a write reaches. The instances are
// the serving benchmark's: regional-mixed serves ER n=200k avgdeg 8,
// churn-durable writes 4-op batches to ER n=100k avgdeg 8.

// erGraph builds the generator's ER instance once per process, so the
// benchmark framework's repeated calls share it.
func erGraph(n int) func() *graph.Graph {
	return sync.OnceValue(func() *graph.Graph {
		g, err := gen.Spec{Kind: "er", N: n, AvgDeg: 8, Seed: 1}.Build()
		if err != nil {
			panic(err)
		}
		return g
	})
}

var (
	er200k = erGraph(200_000)
	er100k = erGraph(100_000)
	// sink and distSink keep each measured call's result live.
	sink     *graph.Graph
	distSink map[graph.NodeID]int
)

func BenchmarkDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := graph.Encode(&buf, er200k()); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		g, err := graph.Decode(bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		sink = g
	}
}

// churnBatches draws count batches in churn-durable's shape — one
// set_interest, add_edge, del_edge and set_tau op on distinct edges —
// each valid against g on its own.
func churnBatches(g *graph.Graph, count int) [][]graph.Mutation {
	r := rand.New(rand.NewPCG(1, 2))
	n := g.N()
	existing := func(used map[[2]graph.NodeID]bool) (graph.NodeID, graph.NodeID) {
		for {
			u := graph.NodeID(r.IntN(n))
			nb := g.Neighbors(u)
			if len(nb) == 0 {
				continue
			}
			v := nb[r.IntN(len(nb))]
			k := [2]graph.NodeID{min(u, v), max(u, v)}
			if !used[k] {
				used[k] = true
				return u, v
			}
		}
	}
	batches := make([][]graph.Mutation, count)
	for i := range batches {
		used := make(map[[2]graph.NodeID]bool)
		batch := []graph.Mutation{{Op: graph.MutSetInterest, U: graph.NodeID(r.IntN(n)), Eta: r.Float64()}}
		for {
			u, v := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
			if u != v && !g.HasEdge(u, v) {
				used[[2]graph.NodeID{min(u, v), max(u, v)}] = true
				batch = append(batch, graph.Mutation{Op: graph.MutAddEdge, U: u, V: v, TauOut: r.Float64(), TauIn: r.Float64()})
				break
			}
		}
		u, v := existing(used)
		batch = append(batch, graph.Mutation{Op: graph.MutDelEdge, U: u, V: v})
		u, v = existing(used)
		batch = append(batch, graph.Mutation{Op: graph.MutSetTau, U: u, V: v, TauOut: r.Float64(), TauIn: r.Float64()})
		batches[i] = batch
	}
	return batches
}

func BenchmarkApplyMutations(b *testing.B) {
	g := er100k()
	batches := churnBatches(g, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		g2, _, err := g.ApplyMutations(batches[i%len(batches)])
		if err != nil {
			b.Fatal(err)
		}
		sink = g2
	}
}

// BenchmarkHopDistances runs the invalidation BFS a write triggers: from
// the 7 nodes a churn batch touches, to depth 4 (the deepest radius
// churn-durable caches, k=5).
func BenchmarkHopDistances(b *testing.B) {
	g := er100k()
	var sources [][]graph.NodeID
	for _, batch := range churnBatches(g, 16) {
		_, touched, err := g.ApplyMutations(batch)
		if err != nil {
			b.Fatal(err)
		}
		sources = append(sources, touched)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		distSink = g.HopDistances(sources[i%len(sources)], 4)
	}
}
