package gen

import (
	"fmt"
	"math"

	"waso/internal/graph"
)

// Spec is the wire-ready description of one synthetic instance, shared by
// the waso CLI and the wasod server so both build identical graphs from
// identical parameters.
type Spec struct {
	Kind   string  `json:"kind"`   // "powerlaw" (aliases "pl", "ba") or "er" (alias "gnp")
	N      int     `json:"n"`      // node count
	AvgDeg float64 `json:"avgdeg"` // target average degree
	Seed   uint64  `json:"seed"`   // instance seed
}

// Build generates the instance under the paper's score model.
func (s Spec) Build() (*graph.Graph, error) {
	if math.IsNaN(s.AvgDeg) || math.IsInf(s.AvgDeg, 0) || s.AvgDeg < 0 {
		return nil, fmt.Errorf("gen: average degree must be finite and ≥ 0, got %v", s.AvgDeg)
	}
	switch s.Kind {
	case "powerlaw", "pl", "ba":
		m := int(s.AvgDeg / 2)
		if m < 1 {
			m = 1
		}
		return PreferentialAttachment(s.N, m, s.Seed)
	case "er", "gnp":
		p := 0.0
		if s.N > 1 {
			p = s.AvgDeg / float64(s.N-1)
		}
		if p > 1 {
			p = 1
		}
		return ErdosRenyi(s.N, p, s.Seed)
	default:
		return nil, fmt.Errorf("gen: unknown generator %q (want powerlaw or er)", s.Kind)
	}
}

// String renders the spec for graph provenance labels.
func (s Spec) String() string {
	return fmt.Sprintf("%s(n=%d, avgdeg=%g, seed=%d)", s.Kind, s.N, s.AvgDeg, s.Seed)
}
