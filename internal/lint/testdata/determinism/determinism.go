// Package determinism is the analyzer fixture: flagged sites carry
// `// want` expectations, sanctioned sites carry //lint:allow comments,
// and notReachable shows the call-graph scoping (clock reads outside the
// Solve result path are not findings).
package determinism

import (
	"math/rand"
	"time"
)

// Solve is a result-path root: it and everything reachable from it is
// checked.
func Solve(m map[int]int, a, b chan int) int {
	began := time.Now() // want `call to time\.Now in a result path`
	total := helper(m)
	select { // want `select over 2 channels in a result path`
	case v := <-a:
		total += v
	case v := <-b:
		total += v
	}
	total += rand.Intn(10)       // want `call to global rand\.Intn in a result path`
	total += seededDraw()        // seeded sub-stream draws are fine
	_ = allowedTiming(m)         // suppressed sites, see below
	elapsed := time.Since(began) // want `call to time\.Since in a result path`
	_ = elapsed
	return total
}

// helper is reachable from Solve, so its map range is flagged.
func helper(m map[int]int) int {
	total := 0
	for _, v := range m { // want `range over map in a result path`
		total += v
	}
	return total
}

// seededDraw uses an explicitly seeded generator — the sanctioned form.
func seededDraw() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(10)
}

// allowedTiming carries the escape hatch on every site the analyzer would
// otherwise flag.
func allowedTiming(m map[int]int) time.Duration {
	began := time.Now() //lint:allow determinism(fixture: advisory timing only)
	keys := make([]int, 0, len(m))
	//lint:allow determinism(fixture: keys are sorted before use)
	for k := range m {
		keys = append(keys, k)
	}
	_ = keys
	return time.Since(began) //lint:allow determinism(fixture: advisory timing only)
}

// notReachable is not reachable from Solve, so its clock read is outside
// the result path and not a finding.
func notReachable() time.Time { return time.Now() }

var _ = notReachable

// Delta mirrors objective.Binding.Delta: it is a result-path root —
// its return value becomes Report.Best — so clock reads inside it are
// findings exactly like in Solve.
func Delta(m map[int]int) float64 {
	_ = time.Now() // want `call to time\.Now in a result path`
	return deltaHelper(m)
}

// deltaHelper is reachable from the Delta root, so its map range is
// flagged.
func deltaHelper(m map[int]int) float64 {
	total := 0.0
	for _, v := range m { // want `range over map in a result path`
		total += float64(v)
	}
	return total
}

// Bound is the other scoring root: global RNG draws in it are findings.
func Bound() float64 {
	return float64(rand.Intn(3)) // want `call to global rand\.Intn in a result path`
}

// names mirrors the objective registry's Names(): its map range sorts keys
// after collection and is not reachable from any root, so it stays silent.
func names(registry map[string]int) []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	return out
}

var _ = names
