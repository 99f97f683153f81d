package sampling

import (
	"math"
	"testing"

	"github.com/isasgd/isasgd/internal/xrand"
)

// FuzzAliasConstruction feeds arbitrary weight vectors to the alias-table
// builder. Invariants: construction either errors or yields a sampler
// whose Prob sums to 1, whose draws are in range, and whose table draws
// each index with its Prob: the probability implied by the prob and
// alias arrays (Implied) is Prob(i) within VoseBound.
func FuzzAliasConstruction(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{0, 0, 255})
	f.Add([]byte{255})
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 200})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		weights := make([]float64, len(raw))
		for i, b := range raw {
			// Spread over ~12 orders of magnitude to stress the
			// small/large worklist partitioning.
			weights[i] = float64(b) * math.Pow(10, float64(i%13)-6)
		}
		a, err := NewAlias(weights)
		if err != nil {
			return
		}
		sum := 0.0
		for i := 0; i < a.N(); i++ {
			p := a.Prob(i)
			if p < 0 || math.IsNaN(p) {
				t.Fatalf("Prob(%d) = %g", i, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %g", sum)
		}
		m := 0.0
		for _, p := range a.Probs() {
			m = max(m, p*float64(a.N()))
		}
		tol := VoseBound(a.N(), m)
		for i, q := range a.Implied(nil) {
			if d := math.Abs(q - a.Prob(i)); d > tol {
				t.Fatalf("index %d of %d: table draws it with probability %g, Prob says %g (off by %g > %g)",
					i, a.N(), q, a.Prob(i), d, tol)
			}
		}
		r := xrand.New(1)
		for k := 0; k < 64; k++ {
			v := a.Sample(r)
			if v < 0 || v >= a.N() {
				t.Fatalf("sample %d out of range", v)
			}
			if a.Prob(v) == 0 {
				t.Fatalf("drew index %d with probability 0", v)
			}
		}
	})
}
