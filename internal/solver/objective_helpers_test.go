package solver

import (
	"waso/internal/graph"
	"waso/internal/objective"
)

// testBindAs binds the named objective over g; "" means the default
// willingness objective. An unknown name is a fixture bug.
func testBindAs(name string, g *graph.Graph) *objective.Binding {
	obj, err := objective.New(name)
	if err != nil {
		panic(err)
	}
	return objective.Bind(obj, g)
}

// testBind is the default-objective binding over g — the shorthand the
// pre-objective test suite's NewPrep(g)/NewRegionCache(g, n) calls map to.
func testBind(g *graph.Graph) *objective.Binding {
	return testBindAs(objective.Default, g)
}

func testPrep(g *graph.Graph) *Prep { return NewPrep(testBind(g)) }

func testCache(g *graph.Graph, maxEntries int) *RegionCache {
	return NewRegionCache(testBind(g), maxEntries)
}
