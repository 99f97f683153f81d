package kernel

import (
	"math"
	"testing"

	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/xrand"
)

// TestDotTailLengths exercises every unroll tail (nnz 0..9) against the
// naive rolled loop. The f64 dot keeps one sequential accumulator, so
// the match must be bitwise.
func TestDotTailLengths(t *testing.T) {
	rng := xrand.New(0xd07)
	w := make([]float64, 64)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	for nnz := 0; nnz <= 9; nnz++ {
		idx := make([]int32, nnz)
		val := make([]float64, nnz)
		for k := range idx {
			idx[k] = int32(rng.Intn(len(w)))
			val[k] = rng.NormFloat64()
		}
		naive := 0.0
		for k, j := range idx {
			naive += val[k] * w[j]
		}
		if got := Dot(w, idx, val); math.Float64bits(got) != math.Float64bits(naive) {
			t.Errorf("nnz %d: Dot = %x, naive = %x", nnz, math.Float64bits(got), math.Float64bits(naive))
		}
		if got := DotClamped(w, idx, val); math.Float64bits(got) != math.Float64bits(naive) {
			t.Errorf("nnz %d: DotClamped(in-range) = %x, naive = %x",
				nnz, math.Float64bits(got), math.Float64bits(naive))
		}
	}
}

// TestUpdateTailLengthsAndDuplicates drives the unrolled update loops
// with every tail length and with rows full of duplicate indices — the
// bench workload's legal-but-nasty case where hoisting loads above
// stores would silently drop increments. Reference is the oracle.
func TestUpdateTailLengthsAndDuplicates(t *testing.T) {
	rng := xrand.New(0x0dd)
	for _, obj := range testObjectives() {
		for nnz := 0; nnz <= 9; nnz++ {
			spec := model.NewRacy(16)
			ref := model.NewRacy(16)
			init := make([]float64, 16)
			for j := range init {
				init[j] = rng.NormFloat64()
			}
			spec.Load(init)
			ref.Load(init)
			ks, kr := New(spec, obj), NewReference(ref, obj)

			idx := make([]int32, nnz)
			val := make([]float64, nnz)
			for k := range idx {
				idx[k] = int32(rng.Intn(3)) // heavy duplication on purpose
				val[k] = rng.NormFloat64()
			}
			ks.Update(idx, val, 0.7, 0.05)
			kr.Update(idx, val, 0.7, 0.05)
			requireBitwiseEqual(t, spec, ref, obj.Name()+"/dup Update")
			shift := []float64{0.25, -0.5, 1}
			ks.UpdateShift(idx, val, -0.3, 0.05, shift)
			kr.UpdateShift(idx, val, -0.3, 0.05, shift)
			requireBitwiseEqual(t, spec, ref, obj.Name()+"/dup UpdateShift")
		}
	}
}

// TestClampedFastPathUnsorted pins the fast-path dispatch on unsorted
// rows: an out-of-range index anywhere in the row — not just at the
// end — must still be dropped. A sorted-last-element check would pass
// in-order rows and corrupt this one.
func TestClampedFastPathUnsorted(t *testing.T) {
	w := []float64{1, 2, 3, 4}
	idx := []int32{2, 99, 1} // overflow in the middle, unsorted
	val := []float64{1, 100, 1}
	if got := DotClamped(w, idx, val); got != 3+2 {
		t.Fatalf("DotClamped = %g, want 5", got)
	}
	m := model.NewRacy(4)
	m.Load(w)
	k := New(m, noneObj{})
	k.StepClamped(idx, val, 0, 0) // s=0: model must stay put, no panic
	for j, want := range []float64{1, 2, 3, 4} {
		if got := m.Get(int32(j)); got != want {
			t.Fatalf("coordinate %d moved to %g", j, got)
		}
	}
	if got := DotClampedInts(w, []int{2, -5, 1, 99}, []float64{1, 100, 1, 100}); got != 5 {
		t.Fatalf("DotClampedInts = %g, want 5", got)
	}
}

// The clamped-predict benchmark set. The package-level clamped dot
// keeps its range checks inline (always-taken, predicted branches) and
// should read within a few ns/op of the raw dot; a kernel's StepClamped
// dispatches a fully in-vocabulary row to Step after one branchless
// index scan. Compare BenchmarkDotClampedInVocab against
// BenchmarkDotUnchecked, and BenchmarkStepClampedInVocab against the f64
// step benchmarks.
func benchDotRow(n int) ([]float64, []int32, []float64) {
	rng := xrand.New(42)
	w := make([]float64, 1<<16)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	idx := make([]int32, n)
	val := make([]float64, n)
	for k := range idx {
		idx[k] = int32(rng.Intn(len(w)))
		val[k] = rng.NormFloat64()
	}
	return w, idx, val
}

var sinkF64 float64

func BenchmarkDotUnchecked(b *testing.B) {
	w, idx, val := benchDotRow(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF64 = Dot(w, idx, val)
	}
}

func BenchmarkDotClampedInVocab(b *testing.B) {
	w, idx, val := benchDotRow(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF64 = DotClamped(w, idx, val)
	}
}

func BenchmarkStepClampedInVocab(b *testing.B) {
	w, idx, val := benchDotRow(64)
	m := model.NewRacy(len(w))
	m.Load(w)
	k := New(m, objective.LeastSquaresL2{Eta: 0.01})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.StepClamped(idx, val, 1, 1e-6)
	}
}
