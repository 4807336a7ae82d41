package waso

import (
	"fmt"
	"testing"

	"waso/internal/rng"
	"waso/internal/sampling"
)

// BenchmarkSamplerCrossover measures one draw-plus-update cycle of the two
// weighted-sampler backends across frontier sizes — the workload of one
// CBASND growth step. The size where fenwick beats linear calibrates
// solver.FenwickCrossover; README's "Sampler crossover" note records the
// numbers it rests on.
func BenchmarkSamplerCrossover(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096, 16384} {
		weights := make([]float64, n)
		r := rng.New(uint64(n))
		for i := range weights {
			weights[i] = r.Float64() + 0.01
		}

		b.Run(fmt.Sprintf("linear/n=%d", n), func(b *testing.B) {
			r := rng.New(1)
			for i := 0; i < b.N; i++ {
				idx := sampling.WeightedIndex(r, weights)
				weights[idx] += 1e-12 // the update is a plain store
			}
		})

		b.Run(fmt.Sprintf("fenwick/n=%d", n), func(b *testing.B) {
			f := sampling.NewFenwick(n)
			for i, w := range weights {
				f.Set(i, w)
			}
			r := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, err := f.Sample(r)
				if err != nil {
					b.Fatal(err)
				}
				f.Set(idx, f.Weight(idx)+1e-12) // one real BIT update per draw
			}
		})
	}
}
