package main

import (
	"fmt"
	"math"
	"slices"

	"waso/internal/core"
	"waso/internal/graph"
	"waso/internal/objective"
)

// checker verifies answers and counts the outcome. Not safe for concurrent
// use; each stream owns one and the run merges them.
type checker struct {
	attempted, failed int
	exactW            int      // answers whose W equals Binding.Value bit for bit
	errs              []string // the first few failures, for the report
}

// note counts one attempted operation and its error, if any.
func (c *checker) note(err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
}

// fail counts n failed operations, already counted as attempted, for one
// cause.
func (c *checker) fail(n int, err error) {
	c.failed += n
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
}

// merge folds another stream's counts into c.
func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.exactW += o.exactW
	for _, e := range o.errs {
		if len(c.errs) < 5 {
			c.errs = append(c.errs, e)
		}
	}
}

// answer checks one Best against the binding of the graph version it was
// solved on, counts it, and reports whether it passed.
func (c *checker) answer(b *objective.Binding, k int, sol core.Solution) bool {
	exact, err := checkAnswer(b, k, sol)
	if exact {
		c.exactW++
	}
	c.note(err)
	return err == nil
}

// checkAnswer verifies that sol is a non-empty, ascending, duplicate-free
// set of at most k nodes of the graph that induces a connected subgraph, and
// that its willingness equals Binding.Value of those nodes. The solver sums
// the same node and edge terms in growth order while Value sums them in id
// order, so the two may differ in the last bits (between a sixth and two
// thirds of answers, by workload); the check allows exactly the error that
// reordering a float sum of n terms can cause, 2·n·2⁻⁵³·Σ|term|, and exact
// reports whether the two agree bit for bit.
func checkAnswer(b *objective.Binding, k int, sol core.Solution) (exact bool, err error) {
	nodes := sol.Nodes
	n := b.Graph().N()
	if len(nodes) == 0 || len(nodes) > k {
		return false, fmt.Errorf("answer has %d nodes, want 1..%d", len(nodes), k)
	}
	for i, v := range nodes {
		if int(v) < 0 || int(v) >= n {
			return false, fmt.Errorf("answer node %d outside [0,%d)", v, n)
		}
		if i > 0 && nodes[i-1] >= v {
			return false, fmt.Errorf("answer nodes %v not ascending and distinct", nodes)
		}
	}
	if !b.Graph().Connected(nodes) {
		return false, fmt.Errorf("answer %v is not connected", nodes)
	}
	want := b.Value(nodes)
	if sol.Willingness == want {
		return true, nil
	}
	terms, abs := valueTerms(b, nodes)
	if tol := 2 * float64(terms) * 0x1p-53 * abs; math.Abs(sol.Willingness-want) > tol {
		return false, fmt.Errorf("answer %v reports W=%v, Binding.Value gives %v", nodes, sol.Willingness, want)
	}
	return false, nil
}

// valueTerms returns how many terms Binding.Value sums for the ascending
// set and the sum of their magnitudes.
func valueTerms(b *objective.Binding, set []graph.NodeID) (terms int, abs float64) {
	off, nbr, edge, node := b.CSR()
	for _, v := range set {
		terms++
		abs += math.Abs(node[v])
		for p := off[v]; p < off[v+1] && nbr[p] < v; p++ {
			if _, in := slices.BinarySearch(set, nbr[p]); in {
				terms++
				abs += math.Abs(edge[p])
			}
		}
	}
	return terms, abs
}

// sameAnswers compares two runs' answers to the same operations bit for
// bit and returns how many differ.
func sameAnswers(a, b []core.Solution) int {
	diff := 0
	for i := range a {
		if i >= len(b) || !a[i].Equal(b[i]) || math.Float64bits(a[i].Willingness) != math.Float64bits(b[i].Willingness) {
			diff++
		}
	}
	return diff + max(0, len(b)-len(a))
}
