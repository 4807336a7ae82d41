package core

import (
	"encoding/json"
	"testing"

	"waso/internal/graph"
)

func TestDefaultRequestValid(t *testing.T) {
	r := DefaultRequest(5)
	if err := r.Validate(); err != nil {
		t.Errorf("DefaultRequest(5) invalid: %v", err)
	}
	if r.K != 5 || r.Starts != DefaultStarts || r.Samples != DefaultSamples ||
		r.Alpha != DefaultAlpha || r.Sampler != SamplerAuto || !r.Prune {
		t.Errorf("DefaultRequest(5) = %+v", r)
	}
}

func TestRequestValidate(t *testing.T) {
	base := DefaultRequest(5)
	cases := []struct {
		name   string
		mut    func(*Request)
		wantOK bool
	}{
		{"default", func(*Request) {}, true},
		{"zero samples is a real value", func(r *Request) { r.Samples = 0 }, true},
		{"zero alpha", func(r *Request) { r.Alpha = 0 }, true},
		{"negative workers means no cap", func(r *Request) { r.Workers = -1 }, true},
		{"k=0", func(r *Request) { r.K = 0 }, false},
		{"starts=0", func(r *Request) { r.Starts = 0 }, false},
		{"negative samples", func(r *Request) { r.Samples = -1 }, false},
		{"negative alpha", func(r *Request) { r.Alpha = -2 }, false},
		{"unknown sampler", func(r *Request) { r.Sampler = "quantum" }, false},
		{"empty sampler", func(r *Request) { r.Sampler = "" }, false},
		{"region off", func(r *Request) { r.Region = RegionOff }, true},
		{"region always", func(r *Request) { r.Region = RegionAlways }, true},
		{"unknown region mode", func(r *Request) { r.Region = "sometimes" }, false},
		{"empty region mode", func(r *Request) { r.Region = "" }, false},
	}
	for _, tc := range cases {
		r := base
		tc.mut(&r)
		if err := r.Validate(); (err == nil) != tc.wantOK {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.wantOK)
		}
	}
}

// TestRequestJSONOverDefaults: decoding a JSON body over DefaultRequest
// keeps defaults for absent fields and honours explicit zeros — the
// property that removes the old "Samples ≤ 0 means default" ambiguity.
func TestRequestJSONOverDefaults(t *testing.T) {
	r := DefaultRequest(0)
	if err := json.Unmarshal([]byte(`{"k":7,"samples":0,"prune":false}`), &r); err != nil {
		t.Fatal(err)
	}
	if r.K != 7 {
		t.Errorf("K = %d, want 7", r.K)
	}
	if r.Samples != 0 {
		t.Errorf("Samples = %d, want explicit 0", r.Samples)
	}
	if r.Prune {
		t.Error("explicit prune:false ignored")
	}
	if r.Starts != DefaultStarts || r.Alpha != DefaultAlpha || r.Sampler != SamplerAuto {
		t.Errorf("absent fields lost their defaults: %+v", r)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("merged request invalid: %v", err)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	in := Report{
		Algo:         "cbasnd",
		Best:         NewSolution([]graph.NodeID{3, 1}, 4.5),
		Starts:       8,
		SamplesDrawn: 1600,
		Pruned:       12,
		Elapsed:      1500000,
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if out.Algo != in.Algo || !out.Best.Equal(in.Best) || out.Best.Willingness != in.Best.Willingness ||
		out.SamplesDrawn != in.SamplesDrawn || out.Pruned != in.Pruned || out.Elapsed != in.Elapsed {
		t.Errorf("round trip lost data: %+v vs %+v", out, in)
	}
	if in.ElapsedMillis() != 1.5 {
		t.Errorf("ElapsedMillis = %v, want 1.5", in.ElapsedMillis())
	}
}

func TestNewSolutionCanonical(t *testing.T) {
	s := NewSolution([]graph.NodeID{5, 1, 3}, 2.5)
	want := []graph.NodeID{1, 3, 5}
	for i, v := range want {
		if s.Nodes[i] != v {
			t.Fatalf("Nodes = %v, want %v", s.Nodes, want)
		}
	}
	if s.Size() != 3 || s.Willingness != 2.5 {
		t.Errorf("Size=%d W=%v", s.Size(), s.Willingness)
	}
}

func TestBetter(t *testing.T) {
	hi := NewSolution([]graph.NodeID{1, 2}, 3)
	lo := NewSolution([]graph.NodeID{0, 1}, 2)
	if !hi.Better(lo) || lo.Better(hi) {
		t.Error("higher willingness must dominate")
	}
	// Ties break to the lexicographically smaller node set.
	a := NewSolution([]graph.NodeID{0, 3}, 2)
	b := NewSolution([]graph.NodeID{1, 2}, 2)
	if !a.Better(b) || b.Better(a) {
		t.Error("tie must break to the smaller node set")
	}
	if a.Better(a) {
		t.Error("Better must be irreflexive")
	}
}

func TestEqual(t *testing.T) {
	a := NewSolution([]graph.NodeID{2, 4}, 1)
	if !a.Equal(NewSolution([]graph.NodeID{4, 2}, 1)) {
		t.Error("same node set not equal")
	}
	if a.Equal(NewSolution([]graph.NodeID{3, 4}, 1)) {
		t.Error("different node sets compare equal")
	}
	if a.Equal(NewSolution([]graph.NodeID{2}, 1)) {
		t.Error("different sizes compare equal")
	}
}
