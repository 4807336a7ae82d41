package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"waso/internal/core"
	"waso/internal/gen"
	"waso/internal/graph"
	"waso/internal/store"
)

const (
	// graphID is the id every workload serves its one graph under.
	graphID = "g"
	// algo is the solver every request names: the paper's CBAS-ND.
	algo = "cbasnd"
	// dataDir is the store's directory inside the churn-durable memFS.
	dataDir = "data"
	// minSolves is the floor on interactive requests per run, so that
	// solve_p99_ms has at least ten samples beyond it.
	minSolves = 1000
)

// workload is one traffic mix: the graph it serves, the shape of its
// interactive requests and its side stream. Operation counts are fixed per
// second of --seconds (never measured durations), so a given (workload,
// seed, seconds) repeats every answer and count exactly.
type workload struct {
	name string
	// spec is the served graph. Its generator seed is fixed, not taken
	// from --seed: interest scores are power-law distributed, and the mean
	// willingness of the hub workload ranged 126–1023 across generator
	// seeds 1–3, which would swamp every cross-seed spread.
	spec    gen.Spec
	ks      []int // interactive k values, cycled per request
	starts  int
	samples int
	// solvesPerSec is the nominal interactive rate on a 2-vCPU host; a run
	// sends max(minSolves, solvesPerSec × seconds) interactive requests.
	solvesPerSec float64

	// regional-mixed: the open-loop bulk stream.
	batchesPerSec float64
	batchItems    int

	// churn-durable: the durable store and the write script.
	durable        bool
	historyRecords int // WAL records in the boot image
	solvesPerWrite int // interactive solves after each mutation batch
}

// workloads is the benchmark's catalogue; BENCHMARK.json lists the same
// names.
var workloads = []workload{
	{
		name:         "hub-solve",
		spec:         gen.Spec{Kind: "powerlaw", N: 100_000, AvgDeg: 8, Seed: 1},
		ks:           []int{10},
		starts:       8,
		samples:      50,
		solvesPerSec: 50,
	},
	{
		name:          "regional-mixed",
		spec:          gen.Spec{Kind: "er", N: 200_000, AvgDeg: 8, Seed: 1},
		ks:            []int{3, 4, 5},
		starts:        16,
		samples:       50,
		solvesPerSec:  600,
		batchesPerSec: 12,
		batchItems:    16,
	},
	{
		name:           "churn-durable",
		spec:           gen.Spec{Kind: "er", N: 100_000, AvgDeg: 8, Seed: 1},
		ks:             []int{3, 4, 5},
		starts:         16,
		samples:        50,
		solvesPerSec:   120,
		durable:        true,
		historyRecords: 16,
		solvesPerWrite: 4,
	},
}

// workloadByName looks a workload up in the catalogue.
func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// arrival is one scheduled bulk SolveBatch call of the open-loop stream.
type arrival struct {
	at    time.Duration // due time, from the start of the run
	items []core.BatchItem
}

// inputs is everything a run feeds the program, generated from the seed
// before any timer starts. The program sees only these bytes and lists.
type inputs struct {
	w          *workload
	graphBytes []byte   // graph.Encode of the served graph (hub, regional)
	image      *memFS   // churn: data dir with snapshot + historyRecords WAL records
	warmup     [][]byte // wire JSON of the set-up's warm-up requests, one per k
	solves     [][]byte // wire JSON of the interactive requests, in order
	ks         []int    // K of each interactive request (for answer checks)
	bulk       []arrival
	writes     [][]graph.Mutation // churn: write r precedes solves [r·solvesPerWrite, (r+1)·solvesPerWrite)
}

// request builds the i-th request of the workload's shape.
func (w *workload) request(i int, seed uint64) core.Request {
	req := core.DefaultRequest(w.ks[i%len(w.ks)])
	req.Starts = w.starts
	req.Samples = w.samples
	req.Seed = seed
	return req
}

// generate builds the inputs of one run of w from seed.
func generate(w *workload, seed uint64, seconds int) (*inputs, error) {
	r := rand.New(rand.NewPCG(seed, 0x5e7e_bec4))
	in := &inputs{w: w}

	g, err := w.spec.Build()
	if err != nil {
		return nil, fmt.Errorf("generate %s graph: %w", w.name, err)
	}

	for i := range w.ks {
		raw, err := json.Marshal(w.request(i, r.Uint64()))
		if err != nil {
			return nil, err
		}
		in.warmup = append(in.warmup, raw)
	}

	n := max(minSolves, int(w.solvesPerSec*float64(seconds)))
	if w.durable {
		// Whole write rounds, each followed by the same number of solves.
		n = (n + w.solvesPerWrite - 1) / w.solvesPerWrite * w.solvesPerWrite
	}
	in.solves = make([][]byte, n)
	in.ks = make([]int, n)
	for i := range in.solves {
		req := w.request(i, r.Uint64())
		if in.solves[i], err = json.Marshal(req); err != nil {
			return nil, err
		}
		in.ks[i] = req.K
	}

	if w.batchesPerSec > 0 {
		nb := int(w.batchesPerSec * float64(seconds))
		period := time.Duration(float64(time.Second) / w.batchesPerSec)
		for j := 0; j < nb; j++ {
			a := arrival{at: time.Duration(j) * period, items: make([]core.BatchItem, w.batchItems)}
			for it := range a.items {
				a.items[it] = core.BatchItem{Algo: algo, Request: w.request(it, r.Uint64())}
			}
			in.bulk = append(in.bulk, a)
		}
	}

	if !w.durable {
		var buf bytes.Buffer
		if err := graph.Encode(&buf, g); err != nil {
			return nil, err
		}
		in.graphBytes = buf.Bytes()
		return in, nil
	}

	script := newWriteScript(g, r)
	history := make([][]graph.Mutation, w.historyRecords)
	for i := range history {
		history[i] = script.next()
	}
	in.writes = make([][]graph.Mutation, n/w.solvesPerWrite)
	for i := range in.writes {
		in.writes[i] = script.next()
	}
	in.image, err = bootImage(g, history)
	return in, err
}

// bootImage writes the churn-durable boot image: the graph's version-0
// snapshot plus one fsynced WAL record per history batch, as a durable
// server would have left them.
func bootImage(g *graph.Graph, history [][]graph.Mutation) (*memFS, error) {
	fs := newMemFS()
	st, err := store.Open(dataDir, store.Options{FS: fs, Fsync: store.FsyncAlways})
	if err != nil {
		return nil, err
	}
	if err := st.Create(graphID, g); err != nil {
		return nil, err
	}
	for i, muts := range history {
		if _, err := st.Append(graphID, uint64(i+1), muts); err != nil {
			return nil, err
		}
	}
	return fs, st.Close()
}

// writeScript generates mutation batches that are valid, in order, against
// the graph they evolve, without materializing the intermediate graphs: an
// overlay records every edge whose presence differs from the base graph.
// Each batch holds one set_interest, add_edge, del_edge and set_tau op on
// distinct edges, so no op of a batch can invalidate a later one.
type writeScript struct {
	g       *graph.Graph
	r       *rand.Rand
	overlay map[[2]graph.NodeID]bool // edge → present, where it differs from g
}

func newWriteScript(g *graph.Graph, r *rand.Rand) *writeScript {
	return &writeScript{g: g, r: r, overlay: make(map[[2]graph.NodeID]bool)}
}

func edgeKey(u, v graph.NodeID) [2]graph.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.NodeID{u, v}
}

// present reports whether edge {u, v} exists in the evolved graph.
func (s *writeScript) present(u, v graph.NodeID) bool {
	if p, ok := s.overlay[edgeKey(u, v)]; ok {
		return p
	}
	return s.g.HasEdge(u, v)
}

// existingEdge draws an edge present in the evolved graph and not in used:
// a random node's random base neighbor, redrawn when that edge was deleted.
func (s *writeScript) existingEdge(used map[[2]graph.NodeID]bool) (graph.NodeID, graph.NodeID) {
	for {
		u := graph.NodeID(s.r.IntN(s.g.N()))
		nb := s.g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		v := nb[s.r.IntN(len(nb))]
		if k := edgeKey(u, v); !used[k] && s.present(u, v) {
			used[k] = true
			return u, v
		}
	}
}

// next returns the following batch and advances the overlay past it.
func (s *writeScript) next() []graph.Mutation {
	used := make(map[[2]graph.NodeID]bool, 3)
	n := s.g.N()
	batch := make([]graph.Mutation, 0, 4)

	batch = append(batch, graph.Mutation{Op: graph.MutSetInterest,
		U: graph.NodeID(s.r.IntN(n)), Eta: 0.1 + 0.9*s.r.Float64()})

	for {
		u, v := graph.NodeID(s.r.IntN(n)), graph.NodeID(s.r.IntN(n))
		if u != v && !s.present(u, v) {
			used[edgeKey(u, v)] = true
			batch = append(batch, graph.Mutation{Op: graph.MutAddEdge, U: u, V: v, TauOut: s.r.Float64(), TauIn: s.r.Float64()})
			break
		}
	}

	u, v := s.existingEdge(used)
	batch = append(batch, graph.Mutation{Op: graph.MutDelEdge, U: u, V: v})

	u, v = s.existingEdge(used)
	batch = append(batch, graph.Mutation{Op: graph.MutSetTau, U: u, V: v, TauOut: s.r.Float64(), TauIn: s.r.Float64()})

	for _, m := range batch {
		switch m.Op {
		case graph.MutAddEdge:
			s.overlay[edgeKey(m.U, m.V)] = true
		case graph.MutDelEdge:
			s.overlay[edgeKey(m.U, m.V)] = false
		}
	}
	return batch
}
