package kernel

import (
	"math"
	"sync"
	"testing"

	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/xrand"
)

// The f32 kernels are tolerance-bound, not bitwise-bound: their
// executable spec is the f64 Reference run on the same (pre-rounded)
// inputs, with every coordinate within tol32 after every operation.
// tol32 covers float32 rounding of the weights themselves plus the
// reordered four-accumulator dot feeding the derivative.
const tol32 = 5e-5

func within32(a, b float64) bool {
	return math.Abs(a-b) <= tol32*(1+math.Abs(b))
}

func newModel32(kind string, d int) model.Params {
	switch kind {
	case "racy32":
		return model.NewRacy32(d)
	default:
		return model.NewAtomic32(d)
	}
}

func toF32(val []float64) []float32 {
	out := make([]float32, len(val))
	for i, v := range val {
		out[i] = float32(v)
	}
	return out
}

// preRound rounds every value through float32 so the f64 reference run
// consumes bit-identical inputs to the f32 kernels.
func preRound(val []float64) []float64 {
	out := make([]float64, len(val))
	for i, v := range val {
		out[i] = float64(float32(v))
	}
	return out
}

func requireWithin32(t *testing.T, spec, ref model.Params, stage string) {
	t.Helper()
	a, b := spec.Snapshot(nil), ref.Snapshot(nil)
	for j := range a {
		if !within32(a[j], b[j]) {
			t.Fatalf("%s: coordinate %d drifted: f32 %g vs reference %g", stage, j, a[j], b[j])
		}
	}
}

// TestKernel32SpecializationSelected pins the New32 type switch: every
// shipped (f32 model, objective) pairing must get a monomorphic kernel.
func TestKernel32SpecializationSelected(t *testing.T) {
	for _, kind := range []string{"racy32", "atomic32"} {
		for _, obj := range testObjectives() {
			if _, isRef := New32(newModel32(kind, 8), obj).(*reference32); isRef {
				t.Errorf("New32(%s, %s) fell back to reference32", kind, obj.Name())
			}
		}
	}
	if _, isRef := New32(model.NewRacy32(8), customRegObj{}).(*reference32); !isRef {
		t.Error("New32 with an out-of-tree regularizer did not fall back")
	}
	if _, isRef := New32(model.NewRacy(8), objective.LogisticL1{Eta: 1e-3}).(*reference32); !isRef {
		t.Error("New32 with an f64 model did not fall back")
	}
}

// TestKernel32Tolerance is the f32 analog of TestKernelEquivalence:
// every f32 specialization, driven through every operation with
// identical pre-rounded inputs, must track the f64 Reference within
// tol32 at every step.
func TestKernel32Tolerance(t *testing.T) {
	const (
		dim  = 64
		rows = 40
		nnz  = 9
	)
	for _, kind := range []string{"racy32", "atomic32"} {
		for _, obj := range testObjectives() {
			for _, overflow := range []bool{false, true} {
				name := kind + "/" + obj.Name()
				if overflow {
					name += "/overflow"
				}
				t.Run(name, func(t *testing.T) {
					rng := xrand.New(0xbeef)
					idx, val, y := randRows(rng, rows, dim, nnz, overflow)

					spec := newModel32(kind, dim)
					ref := model.NewRacy(dim)
					init := make([]float64, dim)
					for j := range init {
						init[j] = rng.NormFloat64()
					}
					spec.Load(init)
					ref.Load(preRound(init))

					ks := New32(spec, obj)
					kr := NewReference(ref, obj)

					for i := range idx {
						s := 0.01 + 0.5*rng.Float64()
						g := rng.NormFloat64()
						v32 := toF32(val[i])
						v64 := preRound(val[i])
						if overflow {
							ks.StepClamped(idx[i], v32, y[i], s)
							kr.StepClamped(idx[i], v64, y[i], s)
							requireWithin32(t, spec, ref, "StepClamped")
							continue
						}
						if zs, zr := ks.Dot(idx[i], v32), kr.Dot(idx[i], v64); !within32(zs, zr) {
							t.Fatalf("row %d: Dot %g vs %g", i, zs, zr)
						}
						switch i % 3 {
						case 0:
							ks.Step(idx[i], v32, y[i], s)
							kr.Step(idx[i], v64, y[i], s)
							requireWithin32(t, spec, ref, "Step")
						case 1:
							ks.StepClamped(idx[i], v32, y[i], s)
							kr.StepClamped(idx[i], v64, y[i], s)
							requireWithin32(t, spec, ref, "StepClamped(in-range)")
						case 2:
							ks.Update(idx[i], v32, g, s)
							kr.Update(idx[i], v64, g, s)
							requireWithin32(t, spec, ref, "Update")
						}
					}
				})
			}
		}
	}
}

// TestKernel32ClampedUnsorted pins the f32 fast-path dispatch on
// unsorted rows with a mid-row out-of-range index.
func TestKernel32ClampedUnsorted(t *testing.T) {
	w := []float32{1, 2, 3, 4}
	idx := []int32{2, 99, 1}
	val := []float32{1, 100, 1}
	if got := DotClampedInts32(w, []int{2, -5, 1, 99}, []float64{1, 100, 1, 100}); got != 5 {
		t.Fatalf("DotClampedInts32 = %g, want 5", got)
	}
	m := model.NewRacy32(4)
	m.Load([]float64{1, 2, 3, 4})
	k := New32(m, noneObj{})
	k.StepClamped(idx, val, 0, 0)
	for j, want := range []float64{1, 2, 3, 4} {
		if got := m.Get(int32(j)); got != want {
			t.Fatalf("coordinate %d moved to %g", j, got)
		}
	}
}

// TestDot32TailLengths exercises every unroll tail of the f32 dot
// against a naive float32 loop, allowing only accumulator-reorder
// differences.
func TestDot32TailLengths(t *testing.T) {
	rng := xrand.New(0xd32)
	w := make([]float32, 64)
	for j := range w {
		w[j] = float32(rng.NormFloat64())
	}
	for nnz := 0; nnz <= 9; nnz++ {
		idx := make([]int32, nnz)
		val := make([]float32, nnz)
		for k := range idx {
			idx[k] = int32(rng.Intn(len(w)))
			val[k] = float32(rng.NormFloat64())
		}
		var naive float32
		for k, j := range idx {
			naive += val[k] * w[j]
		}
		if got := Dot32(w, idx, val); !within32(got, float64(naive)) {
			t.Errorf("nnz %d: Dot32 = %g, naive = %g", nnz, got, naive)
		}
	}
}

// TestKernel32ZeroAlloc asserts the f32 scalar and write-back paths
// allocate nothing per update.
func TestKernel32ZeroAlloc(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	obj := objective.LogisticL1{Eta: 1e-3}
	idx := []int32{1, 5, 9, 13}
	val := []float32{0.3, -0.7, 1.1, 0.2}
	for _, tc := range []struct {
		name string
		k    Kernel32
	}{
		{"racy32", New32(model.NewRacy32(16), obj)},
		{"atomic32", New32(model.NewAtomic32(16), obj)},
	} {
		if n := testing.AllocsPerRun(100, func() {
			tc.k.Step(idx, val, 1, 0.01)
			tc.k.StepClamped(idx, val, 1, 0.01)
			tc.k.Update(idx, val, 0.1, 0.01)
		}); n != 0 {
			t.Errorf("%s kernel: %v allocs per update round, want 0", tc.name, n)
		}
	}
	// The snapshot-scoring dots are allocation-free too.
	w32 := make([]float32, 16)
	iidx := []int{1, 5, 9, 13}
	v64 := []float64{0.3, -0.7, 1.1, 0.2}
	if n := testing.AllocsPerRun(100, func() {
		sinkF64 = Dot32(w32, idx, val)
		sinkF64 = DotClampedInts32(w32, iidx, v64)
	}); n != 0 {
		t.Errorf("f32 dots: %v allocs per call round, want 0", n)
	}
}

// TestAtomic32KernelConcurrent hammers the f32 CAS kernels from many
// goroutines; under -race it proves the specializations are race-free,
// and the final count checks no update was lost. workers·perW stays
// far below 2^24, so every ±1 increment is float32-exact, and the
// s=1e-9 Step perturbations round to no-ops at this magnitude.
func TestAtomic32KernelConcurrent(t *testing.T) {
	const (
		workers = 8
		perW    = 2000
	)
	m := model.NewAtomic32(4)
	k := New32(m, objective.LogisticL1{Eta: 1e-4})
	idx := []int32{0, 1, 2, 3}
	val := []float32{1, 1, 1, 1}
	negVal := []float32{-1, -1, -1, -1}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// Update with g=-1, s=1 is w[j] += val[p] + reg-term; use
				// the None-free L1 eta so the reg term is ≤ 1e-4 and the
				// dominant ±1 adds are exact.
				k.Update(idx, negVal, 1, 1)
				z := k.Dot(idx, val)
				if math.IsNaN(z) {
					t.Error("NaN mid-flight")
					return
				}
			}
		}()
	}
	wg.Wait()
	// Each Update adds s·(g·(−1) + η·sign(w)) ≈ +1 per coordinate.
	want := float64(workers * perW)
	for j := int32(0); j < 4; j++ {
		if v := m.Get(j); v < want*0.99 || v > want*1.01 {
			t.Errorf("coordinate %d = %g, want ≈ %g (CAS lost updates?)", j, v, want)
		}
	}
}

// Benchmark pair backing the ≥1.5× acceptance criterion: the same L2
// scalar step in both precisions, with the working set sized so the
// element width decides which cache level holds the hot coordinates.
// 512 rows × 64 nnz touch ~32K distinct indices; at dim 2²¹ those
// spread across ~2 MiB of cache lines at f64 — right at a typical
// per-core L2 — while the f32 layout packs twice the coordinates per
// line and stays resident. That is the regime the tentpole targets:
// identical arithmetic, half the element traffic, one cache level
// closer. (At dims far past LLC the fixed 512-row set re-warms itself
// and the gap narrows to the TLB/stream component, ~1.3×.)
const benchDim32 = 1 << 21 // 16 MiB f64 / 8 MiB f32 weights

func benchRows32(dim, rows, nnz int) (idx [][]int32, val64 [][]float64, val32 [][]float32) {
	rng := xrand.New(7)
	idx = make([][]int32, rows)
	val64 = make([][]float64, rows)
	val32 = make([][]float32, rows)
	for i := range idx {
		idx[i] = make([]int32, nnz)
		val64[i] = make([]float64, nnz)
		val32[i] = make([]float32, nnz)
		for k := 0; k < nnz; k++ {
			idx[i][k] = int32(rng.Intn(dim))
			v := rng.NormFloat64()
			val64[i][k] = v
			val32[i][k] = float32(v)
		}
	}
	return
}

func BenchmarkRacyL2StepF64(b *testing.B) {
	idx, val, _ := benchRows32(benchDim32, 512, 64)
	k := New(model.NewRacy(benchDim32), objective.LeastSquaresL2{Eta: 0.01})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i & 511
		k.Step(idx[r], val[r], 1, 1e-6)
	}
}

func BenchmarkRacyL2StepF32(b *testing.B) {
	idx, _, val := benchRows32(benchDim32, 512, 64)
	k := New32(model.NewRacy32(benchDim32), objective.LeastSquaresL2{Eta: 0.01})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i & 511
		k.Step(idx[r], val[r], 1, 1e-6)
	}
}
