package adaptive

import (
	"math"
	"testing"

	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/sampling"
	"github.com/isasgd/isasgd/internal/xrand"
)

// identity returns the rows 0, 1, …, n-1.
func identity(n int) []int {
	rows := make([]int, n)
	for k := range rows {
		rows[k] = k
	}
	return rows
}

// checkDistribution builds the alias table a trainer builds from w and
// asserts what its updates rely on: every weight finite, every p_i > 0,
// the corrected draws unbiased (Σ_i p_i·1/(n·p_i) = 1), and, when
// maxScale > 0, every correction 1/(n·p_i) at most maxScale.
func checkDistribution(t *testing.T, what string, w []float64, maxScale float64) {
	t.Helper()
	for i, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: weight %d = %g is not finite", what, i, v)
		}
	}
	al, err := sampling.NewAlias(w)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	n := float64(len(w))
	sum := 0.0
	for i := range w {
		p := al.Prob(i)
		if !(p > 0) {
			t.Fatalf("%s: p_%d = %g, want > 0", what, i, p)
		}
		scale := 1 / (n * p)
		sum += p * scale
		if maxScale > 0 && scale > maxScale*(1+1e-12) {
			t.Fatalf("%s: correction 1/(n·p_%d) = %g exceeds %g", what, i, scale, maxScale)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("%s: Σ p_i·1/(n·p_i) = %.17g, want 1", what, sum)
	}
}

// TestGradWeights pins the rule on a small case: visited rows weigh
// ‖x‖·|ℓ'|, a never-visited row takes the largest recorded |ℓ'|, and the
// result is the ½(1/n + w/Σw) mix, read through rows.
func TestGradWeights(t *testing.T) {
	norm := []float64{2, 1, 4, 3}
	grad := []float32{0.5, 0, -1, 0.25} // row 2 never visited
	rows := []int{3, 0, 1, 2}
	// w: row3 = 0.75, row0 = 1, row1 = 0, row2 = 4·0.5 = 2; Σw = 3.75.
	want := []float64{0.75, 1, 0, 2}
	got := GradWeights(nil, rows, norm, grad)
	for k := range want {
		if p := 0.5 * (0.25 + want[k]/3.75); math.Abs(got[k]-p) > 1e-15 {
			t.Fatalf("weight %d (row %d) = %g, want %g", k, rows[k], got[k], p)
		}
	}
	// Nothing recorded: the fallback |ℓ'| is 1, so weights follow ‖x‖.
	got = GradWeights(got, identity(2), []float64{1, 3}, []float32{-1, -1})
	if math.Abs(got[0]-0.5*(0.5+0.25)) > 1e-15 || math.Abs(got[1]-0.5*(0.5+0.75)) > 1e-15 {
		t.Fatalf("unvisited rows = %v, want norm-proportional mix", got)
	}
	// All gradients zero: uniform.
	got = GradWeights(got, identity(3), []float64{1, 2, 3}, []float32{0, 0, 0})
	for k, v := range got {
		if v != 1.0/3 {
			t.Fatalf("all-zero gradients: weight %d = %g, want 1/3", k, v)
		}
	}
}

// TestGradWeightsNoAllocs guards the rebuild contract: a buffer that is
// already large enough is reused.
func TestGradWeightsNoAllocs(t *testing.T) {
	rows := identity(256)
	norm := make([]float64, 256)
	grad := make([]float32, 256)
	for i := range norm {
		norm[i], grad[i] = float64(i), float32(i%7)-1
	}
	dst := make([]float64, 256)
	if avg := testing.AllocsPerRun(100, func() { dst = GradWeights(dst, rows, norm, grad) }); avg != 0 {
		t.Fatalf("GradWeights allocates %.2f/op into a reused buffer, want 0", avg)
	}
}

// TestWeightRulesProperty checks the distribution contract for both
// weightings the trainers sample from — the static Lipschitz bound of
// Eq. 12 and the gradient-norm rule — over random rows: positive
// probabilities and unbiased corrections for both, and corrections at
// most 2 for the gradient-norm rule.
func TestWeightRulesProperty(t *testing.T) {
	rng := xrand.New(53)
	obj := objective.LogisticL1{Eta: 1e-4}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		norm := make([]float64, n)
		grad := make([]float32, n)
		bound := make([]float64, n)
		for i := range norm {
			norm[i] = math.Exp(4 * rng.NormFloat64()) // ψ far below 1
			switch rng.Intn(4) {
			case 0:
				grad[i] = -1 // never visited
			case 1:
				grad[i] = 0
			default:
				grad[i] = float32(rng.Float64())
			}
			bound[i] = obj.Lipschitz(norm[i] * norm[i])
		}
		checkDistribution(t, "bound", bound, 0)
		checkDistribution(t, "grad", GradWeights(nil, identity(n), norm, grad), 2)
	}
}

// FuzzGradWeights drives the rule with extreme inputs — all-zero
// gradients, denormals, 1e300 norms, overflowing float32 gradients,
// never-visited rows and single rows — and checks the distribution
// contract of TestWeightRulesProperty. The static bound is checked
// wherever it is finite; a row whose ‖x‖² overflows has none.
func FuzzGradWeights(f *testing.F) {
	f.Add(uint8(4), 1.0, 2.0, float32(0), float32(0), uint64(1))
	f.Add(uint8(0), 1e300, 1.0, float32(-1), float32(0.5), uint64(2))
	f.Add(uint8(9), math.SmallestNonzeroFloat64, 1e-310, float32(1e-45), float32(3e38), uint64(3))
	f.Add(uint8(3), 1e300, 1e300, float32(math.Inf(1)), float32(-1), uint64(4))
	f.Fuzz(func(t *testing.T, m uint8, n0, n1 float64, g0, g1 float32, seed uint64) {
		if math.IsNaN(n0) || math.IsInf(n0, 0) || n0 < 0 || math.IsNaN(n1) || math.IsInf(n1, 0) || n1 < 0 {
			return // a row's norm is finite and non-negative
		}
		n := 1 + int(m)
		rng := xrand.New(seed)
		norm := make([]float64, n)
		grad := make([]float32, n)
		for i := range norm {
			switch i % 3 {
			case 0:
				norm[i], grad[i] = n0, g0
			case 1:
				norm[i], grad[i] = n1, g1
			default:
				norm[i], grad[i] = rng.Float64(), -1
			}
		}
		checkDistribution(t, "grad", GradWeights(nil, identity(n), norm, grad), 2)
		obj := objective.LogisticL1{Eta: 1e-4}
		bound := make([]float64, n)
		for i, v := range norm {
			if bound[i] = obj.Lipschitz(v * v); math.IsInf(bound[i], 0) {
				return
			}
		}
		checkDistribution(t, "bound", bound, 0)
	})
}
