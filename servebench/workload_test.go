package main

import (
	"math/rand/v2"
	"testing"

	"waso/internal/core"
	"waso/internal/gen"
	"waso/internal/graph"
	"waso/internal/objective"
	"waso/internal/store"
)

// The write script must stay valid against the graph it evolves, batch
// after batch, without the generator materializing that graph.
func TestWriteScriptStaysValid(t *testing.T) {
	g, err := gen.Spec{Kind: "er", N: 300, AvgDeg: 4, Seed: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newWriteScript(g, rand.New(rand.NewPCG(1, 2)))
	cur := g
	for i := range 400 {
		batch := s.next()
		if len(batch) != 4 {
			t.Fatalf("batch %d has %d ops", i, len(batch))
		}
		next, _, err := cur.ApplyMutations(batch)
		if err != nil {
			t.Fatalf("batch %d does not apply: %v", i, err)
		}
		cur = next
	}
}

// A boot image written to the in-memory filesystem recovers to the graph
// the history produces, at the history's version.
func TestBootImageRecovers(t *testing.T) {
	g, err := gen.Spec{Kind: "er", N: 200, AvgDeg: 4, Seed: 5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	muts := newWriteScript(g, rand.New(rand.NewPCG(3, 4))).next()
	want, _, err := g.ApplyMutations(muts)
	if err != nil {
		t.Fatal(err)
	}
	image, err := bootImage(g, [][]graph.Mutation{muts})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 { // a clone recovers like the original
		st, err := store.Open(dataDir, store.Options{FS: image.clone(), Fsync: store.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := st.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Version != 1 || recs[0].Records != 1 {
			t.Fatalf("recovered %+v", recs)
		}
		if recs[0].Graph.M() != want.M() || recs[0].Graph.N() != want.N() {
			t.Errorf("recovered graph n=%d m=%d, want n=%d m=%d",
				recs[0].Graph.N(), recs[0].Graph.M(), want.N(), want.M())
		}
		st.Close()
	}
}

func TestCheckAnswer(t *testing.T) {
	g, err := gen.Spec{Kind: "er", N: 50, AvgDeg: 6, Seed: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	b := objective.Bind(willingness(), g)
	u := graph.NodeID(0)
	v := g.Neighbors(u)[0]
	nodes := []graph.NodeID{min(u, v), max(u, v)}
	good := core.Solution{Nodes: nodes, Willingness: b.Value(nodes)}
	if exact, err := checkAnswer(b, 2, good); err != nil || !exact {
		t.Errorf("valid answer: exact=%v err=%v", exact, err)
	}
	for name, sol := range map[string]core.Solution{
		"too big":   good,
		"empty":     {},
		"wrong W":   {Nodes: nodes, Willingness: good.Willingness + 1e-6},
		"unsorted":  {Nodes: []graph.NodeID{nodes[1], nodes[0]}, Willingness: good.Willingness},
		"off graph": {Nodes: []graph.NodeID{0, 50}, Willingness: 1},
	} {
		k := 2
		if name == "too big" {
			k = 1
		}
		if _, err := checkAnswer(b, k, sol); err == nil {
			t.Errorf("%s answer passed the check", name)
		}
	}
}
