package main

import (
	"errors"
	"math/bits"
	"testing"

	"waso/internal/service"
)

// FuzzDecodeRequest drives the serving-path request decoder with arbitrary
// JSON. The error contract is what the httperrmap invariant depends on:
// every decode failure must wrap service.ErrInvalid (so fail() maps it to
// 400, never 500), decoding must never panic, and any accepted request
// must survive Validate without panicking. A request Validate accepts
// never asks for more than 2^24 samples in all (Starts × Samples), the
// bound that keeps one solve's task table small.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"k": 5}`))
	f.Add([]byte(`{"k": 5, "starts": 8, "samples": 50, "seed": 42, "alpha": 1.5, "region": "auto", "objective": "friend"}`))
	f.Add([]byte(`{"k": -1}`))
	f.Add([]byte(`{"unknown_field": true}`)) // DisallowUnknownFields must reject
	f.Add([]byte(`{"k": "five"}`))           // type mismatch
	f.Add([]byte(`{"alpha": 1e400}`))        // numeric overflow
	f.Add([]byte(`{"k": 5} trailing`))
	f.Add([]byte(`[`))
	// Execution knobs a request no longer carries: each is an unknown field.
	f.Add([]byte(`{"k": 5, "sampler": "fenwick"}`))
	f.Add([]byte(`{"k": 5, "prune": false}`))
	f.Add([]byte(`{"k": 5, "workers": 2}`))
	// Budgets and group sizes at the edges of the request rules.
	f.Add([]byte(`{"k": 5, "samples": 1099511627776}`))
	f.Add([]byte(`{"k": 5, "starts": 4611686018427387904, "samples": 4}`))
	f.Add([]byte(`{"k": 4611686018427387904}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := decodeRequest(raw)
		if err != nil {
			if !errors.Is(err, service.ErrInvalid) {
				t.Fatalf("decode error does not wrap service.ErrInvalid (would surface as 500, not 400): %v", err)
			}
			return
		}
		if req.Validate() != nil { // must not panic on any decodable document
			return
		}
		if hi, lo := bits.Mul64(uint64(req.Starts), uint64(req.Samples)); hi != 0 || lo > 1<<24 {
			t.Fatalf("Validate accepted %d starts × %d samples, past the 2^24 bound", req.Starts, req.Samples)
		}
	})
}
