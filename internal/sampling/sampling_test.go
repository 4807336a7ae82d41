package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"waso/internal/rng"
)

func TestWeightedIndexDistribution(t *testing.T) {
	r := rng.New(1)
	weights := []float64{1, 2, 3, 4}
	counts := make([]int, 4)
	const trials = 100000
	for i := 0; i < trials; i++ {
		idx := WeightedIndex(r, weights)
		if idx < 0 || idx > 3 {
			t.Fatalf("index out of range: %d", idx)
		}
		counts[idx]++
	}
	total := 10.0
	for i, w := range weights {
		got := float64(counts[i]) / trials
		want := w / total
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d: frequency %.4f, want %.4f", i, got, want)
		}
	}
}

func TestWeightedIndexZeroAndNegative(t *testing.T) {
	r := rng.New(2)
	if got := WeightedIndex(r, []float64{0, 0, 0}); got != -1 {
		t.Errorf("all-zero weights: got %d, want -1", got)
	}
	if got := WeightedIndex(r, nil); got != -1 {
		t.Errorf("nil weights: got %d, want -1", got)
	}
	// Negative and NaN weights act as zero: only index 1 is drawable.
	for i := 0; i < 1000; i++ {
		if got := WeightedIndex(r, []float64{-5, 2, math.NaN()}); got != 1 {
			t.Fatalf("got index %d, want 1", got)
		}
	}
}

func TestWeightedIndexSingleton(t *testing.T) {
	r := rng.New(3)
	for i := 0; i < 100; i++ {
		if got := WeightedIndex(r, []float64{7.5}); got != 0 {
			t.Fatalf("singleton draw = %d", got)
		}
	}
}

func TestFenwickSetTotalWeight(t *testing.T) {
	f := NewFenwick(10)
	if f.Total() != 0 {
		t.Fatal("fresh Fenwick has nonzero total")
	}
	f.Set(3, 2.5)
	f.Set(7, 1.5)
	if got := f.Total(); math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("Total = %v, want 4.0", got)
	}
	if f.Weight(3) != 2.5 || f.Weight(7) != 1.5 || f.Weight(0) != 0 {
		t.Fatal("Weight readback wrong")
	}
	f.Set(3, 0.5) // decrease
	if got := f.Total(); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("Total after decrease = %v, want 2.0", got)
	}
	f.Set(3, -1) // clamp to zero
	if f.Weight(3) != 0 {
		t.Fatal("negative weight not clamped")
	}
	f.Set(5, math.NaN())
	if f.Weight(5) != 0 {
		t.Fatal("NaN weight not clamped")
	}
}

func TestFenwickSampleDistribution(t *testing.T) {
	r := rng.New(4)
	f := NewFenwick(5)
	weights := []float64{0, 1, 3, 0, 6}
	for i, w := range weights {
		f.Set(i, w)
	}
	counts := make([]int, 5)
	const trials = 100000
	for i := 0; i < trials; i++ {
		idx, err := f.Sample(r)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight indexes sampled: %v", counts)
	}
	for i, w := range weights {
		if w == 0 {
			continue
		}
		got := float64(counts[i]) / trials
		want := w / 10.0
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d: frequency %.4f, want %.4f", i, got, want)
		}
	}
}

func TestFenwickSampleEmpty(t *testing.T) {
	r := rng.New(5)
	f := NewFenwick(4)
	if _, err := f.Sample(r); err != ErrZeroTotal {
		t.Fatalf("empty sample error = %v, want ErrZeroTotal", err)
	}
}

func TestFenwickNonPowerOfTwoSizes(t *testing.T) {
	r := rng.New(6)
	for _, n := range []int{1, 2, 3, 5, 17, 63, 64, 65, 100} {
		f := NewFenwick(n)
		f.Set(n-1, 1.0) // only the last slot drawable
		for i := 0; i < 50; i++ {
			idx, err := f.Sample(r)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if idx != n-1 {
				t.Fatalf("n=%d: sampled %d, want %d", n, idx, n-1)
			}
		}
	}
}

// Property: Fenwick total always equals the sum of individually set weights.
func TestQuickFenwickTotalInvariant(t *testing.T) {
	f := func(ops []uint16, raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		fw := NewFenwick(37)
		model := make([]float64, 37)
		for i, op := range ops {
			idx := int(op % 37)
			w := math.Abs(raw[i%len(raw)])
			if math.IsNaN(w) || math.IsInf(w, 0) {
				w = 0
			}
			// Keep weights in a range whose running sums stay finite: the
			// additive invariant is vacuous once float64 addition saturates
			// at +Inf (and saturated tree nodes never recover).
			if w > 1e12 {
				w = math.Mod(w, 1e12)
			}
			fw.Set(idx, w)
			model[idx] = w
		}
		sum := 0.0
		for _, w := range model {
			sum += w
		}
		return math.Abs(fw.Total()-sum) <= 1e-9*(1+sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Fenwick sampling agrees with the linear sampler's support (never
// draws a zero-weight index).
func TestQuickFenwickSupport(t *testing.T) {
	r := rng.New(7)
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		n := len(raw)
		if n > 64 {
			n = 64
		}
		fw := NewFenwick(n)
		any := false
		for i := 0; i < n; i++ {
			w := math.Abs(raw[i])
			if math.IsNaN(w) || math.IsInf(w, 0) {
				w = 0
			}
			fw.Set(i, w)
			if w > 0 {
				any = true
			}
		}
		for trial := 0; trial < 20; trial++ {
			idx, err := fw.Sample(r)
			if !any {
				return err == ErrZeroTotal
			}
			if err != nil || fw.Weight(idx) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFenwickReset: after setting only the first n slots, Reset(n) must
// leave the tree bit-identical to a freshly built one — exact zeros
// everywhere, across sizes including n past the capacity and n = 0.
// (A Set(i, 0) loop is weaker: its delta updates leave FP residue in the
// shared tree nodes; Reset clears them exactly.)
func TestFenwickReset(t *testing.T) {
	r := rng.New(31)
	for _, cap := range []int{1, 2, 3, 7, 8, 9, 64, 100, 257} {
		for _, n := range []int{0, 1, cap / 2, cap - 1, cap, cap + 5} {
			if n < 0 {
				continue
			}
			f := NewFenwick(cap)
			live := n
			if live > cap {
				live = cap
			}
			for i := 0; i < live; i++ {
				f.Set(i, r.Float64()*10)
			}
			f.Reset(n)
			if f.Total() != 0 {
				t.Fatalf("cap=%d n=%d: Total=%v after Reset", cap, n, f.Total())
			}
			for j := range f.tree {
				if f.tree[j] != 0 {
					t.Fatalf("cap=%d n=%d: tree[%d] = %v after Reset", cap, n, j, f.tree[j])
				}
			}
			for i := range f.w {
				if f.w[i] != 0 {
					t.Fatalf("cap=%d n=%d: w[%d] = %v after Reset", cap, n, i, f.w[i])
				}
			}
		}
	}
}

// TestQuickFenwickResetReuse: interleaved rounds of dense fills and bulk
// resets keep sampling correct — every post-reset round behaves exactly
// like a fresh tree with the same weights.
func TestQuickFenwickResetReuse(t *testing.T) {
	r := rng.New(67)
	f := NewFenwick(133)
	for round := 0; round < 50; round++ {
		n := 1 + r.IntN(f.Len())
		fresh := NewFenwick(f.Len())
		for i := 0; i < n; i++ {
			w := r.Float64() * 5
			f.Set(i, w)
			fresh.Set(i, w)
		}
		if f.Total() != fresh.Total() {
			t.Fatalf("round %d: reused Total %v != fresh %v", round, f.Total(), fresh.Total())
		}
		a, b := *rng.New(uint64(round)), *rng.New(uint64(round))
		for d := 0; d < 20; d++ {
			got, gotErr := f.Sample(&a)
			want, wantErr := fresh.Sample(&b)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("round %d draw %d: reused sampled %v (%v), fresh %v (%v)", round, d, got, gotErr, want, wantErr)
			}
		}
		f.Reset(n)
	}
}
