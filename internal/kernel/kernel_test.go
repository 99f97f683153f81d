package kernel

import (
	"math"
	"sync"
	"testing"

	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/xrand"
)

// noneObj is a regularizer-free objective (least-squares loss) used to
// exercise the ×None kernel specializations; no shipped objective maps
// to objective.None.
type noneObj struct{ objective.LeastSquaresL2 }

func (noneObj) Name() string               { return "lsq-none" }
func (noneObj) Reg() objective.Regularizer { return objective.None{} }

// objectives under test, chosen to cover all three concrete
// regularizers plus the sign-sensitive hinge derivative (exactly zero
// g, hence ±0 gradient products).
func testObjectives() []objective.Objective {
	return []objective.Objective{
		objective.LogisticL1{Eta: 1e-3},        // → L1
		objective.SquaredHingeL2{Lambda: 0.05}, // → L2, g can be exactly 0
		objective.LeastSquaresL2{Eta: 0.01},    // → L2
		noneObj{},                              // → None
	}
}

func newModel(kind string, d int) model.Params {
	if kind == "racy" {
		return model.NewRacy(d)
	}
	return model.NewAtomic(d)
}

// randRows synthesizes count sparse rows over dim coordinates with
// signed values, labels, and occasional out-of-range indices when
// overflow is set (to exercise the clamped paths).
func randRows(rng *xrand.Rand, count, dim, nnz int, overflow bool) (idx [][]int32, val [][]float64, y []float64) {
	idx = make([][]int32, count)
	val = make([][]float64, count)
	y = make([]float64, count)
	for i := range idx {
		seen := map[int32]bool{}
		hi := dim
		if overflow {
			hi = dim + dim/2 // ~1/3 of draws land out of range
		}
		for len(idx[i]) < nnz {
			j := int32(rng.Intn(hi))
			if seen[j] {
				continue
			}
			seen[j] = true
			idx[i] = append(idx[i], j)
			val[i] = append(val[i], rng.NormFloat64())
		}
		// Order is irrelevant to the kernels; leave unsorted on purpose.
		if rng.Intn(2) == 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return idx, val, y
}

func snapshotBits(m model.Params) []uint64 {
	w := m.Snapshot(nil)
	bits := make([]uint64, len(w))
	for i, v := range w {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

func requireBitwiseEqual(t *testing.T, spec, ref model.Params, stage string) {
	t.Helper()
	a, b := snapshotBits(spec), snapshotBits(ref)
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("%s: coordinate %d diverged: specialized %x (%g) vs reference %x (%g)",
				stage, j, a[j], math.Float64frombits(a[j]), b[j], math.Float64frombits(b[j]))
		}
	}
}

// TestKernelSpecializationSelected pins the New type switch: every
// shipped (model, objective) pairing must get a monomorphic kernel, not
// the Reference fallback.
func TestKernelSpecializationSelected(t *testing.T) {
	for _, kind := range []string{"racy", "atomic"} {
		for _, obj := range testObjectives() {
			m := newModel(kind, 8)
			if _, isRef := New(m, obj).(*Reference); isRef {
				t.Errorf("New(%s, %s) fell back to Reference", kind, obj.Name())
			}
		}
	}
	// Unrecognized regularizers must fall back.
	if _, isRef := New(model.NewRacy(8), customRegObj{}).(*Reference); !isRef {
		t.Error("New with an out-of-tree regularizer did not fall back to Reference")
	}
}

type customReg struct{ objective.L2 }

func (customReg) Name() string { return "custom" }

type customRegObj struct{ objective.LeastSquaresL2 }

func (customRegObj) Reg() objective.Regularizer { return customReg{} }

// TestKernelEquivalence is the exhaustive bitwise table test: every
// specialized kernel, driven through every operation with identical
// random inputs, must leave the model bitwise-identical to the
// Reference kernel at every step.
func TestKernelEquivalence(t *testing.T) {
	const (
		dim  = 64
		rows = 40
		nnz  = 9
	)
	for _, kind := range []string{"racy", "atomic"} {
		for _, obj := range testObjectives() {
			for _, overflow := range []bool{false, true} {
				name := kind + "/" + obj.Name()
				if overflow {
					name += "/overflow"
				}
				t.Run(name, func(t *testing.T) {
					rng := xrand.New(0xbeef)
					idx, val, y := randRows(rng, rows, dim, nnz, overflow)

					spec := newModel(kind, dim)
					ref := newModel(kind, dim)
					init := make([]float64, dim)
					for j := range init {
						init[j] = rng.NormFloat64()
					}
					spec.Load(init)
					ref.Load(init)

					ks := New(spec, obj)
					kr := NewReference(ref, obj)

					shift := make([]float64, dim)
					for j := range shift {
						shift[j] = rng.NormFloat64()
					}

					for i := range idx {
						s := 0.01 + 0.5*rng.Float64()
						g := rng.NormFloat64()
						if overflow {
							// Out-of-range indices are only legal on the
							// clamped entry point.
							ks.StepClamped(idx[i], val[i], y[i], s)
							kr.StepClamped(idx[i], val[i], y[i], s)
							requireBitwiseEqual(t, spec, ref, "StepClamped")
							continue
						}
						if zs, zr := ks.Dot(idx[i], val[i]), kr.Dot(idx[i], val[i]); math.Float64bits(zs) != math.Float64bits(zr) {
							t.Fatalf("row %d: Dot %x vs %x", i, math.Float64bits(zs), math.Float64bits(zr))
						}
						switch i % 5 {
						case 0:
							ks.Step(idx[i], val[i], y[i], s)
							kr.Step(idx[i], val[i], y[i], s)
							requireBitwiseEqual(t, spec, ref, "Step")
						case 1:
							ks.StepClamped(idx[i], val[i], y[i], s)
							kr.StepClamped(idx[i], val[i], y[i], s)
							requireBitwiseEqual(t, spec, ref, "StepClamped(in-range)")
						case 2:
							ks.Update(idx[i], val[i], g, s)
							kr.Update(idx[i], val[i], g, s)
							requireBitwiseEqual(t, spec, ref, "Update")
						case 3, 4:
							ks.UpdateShift(idx[i], val[i], g, s, shift)
							kr.UpdateShift(idx[i], val[i], g, s, shift)
							requireBitwiseEqual(t, spec, ref, "UpdateShift")
						}
					}
				})
			}
		}
	}
}

// TestKernelNegativeZeroGradient pins the ±0 edge the None kernels'
// literal +0 term exists for: a hinge sample in the flat region yields
// g = 0, so g·x is ±0 and the reference's "+ reg'(w)" (= +0.0)
// normalizes -0 to +0. The specialization must reproduce that exactly.
func TestKernelNegativeZeroGradient(t *testing.T) {
	obj := noneObj{}
	idx := []int32{0, 1}
	val := []float64{1.5, -2.5}
	for _, kind := range []string{"racy", "atomic"} {
		spec := newModel(kind, 2)
		ref := newModel(kind, 2)
		ks := New(spec, obj)
		kr := NewReference(ref, obj)
		// g = -0.0 makes g*val[k] = ∓0.0; with w = 0 the whole update is
		// a pure signed-zero write.
		negZero := math.Copysign(0, -1)
		ks.Update(idx, val, negZero, 1)
		kr.Update(idx, val, negZero, 1)
		requireBitwiseEqual(t, spec, ref, kind+"/neg-zero Update")
	}
}

// TestDotHelpers covers the package-level snapshot dots shared by the
// serving and streaming paths.
func TestDotHelpers(t *testing.T) {
	w := []float64{1, 2, 3, 4}
	idx := []int32{0, 2, 9}
	val := []float64{2, 0.5, 100}
	if got := DotClamped(w, idx, val); got != 2*1+0.5*3 {
		t.Errorf("DotClamped = %g, want 3.5", got)
	}
	if got := Dot(w, idx[:2], val[:2]); got != 3.5 {
		t.Errorf("Dot = %g, want 3.5", got)
	}
	if got := DotClampedInts(w, []int{1, 3, -1, 7}, []float64{1, 1, 5, 5}); got != 2+4 {
		t.Errorf("DotClampedInts = %g, want 6", got)
	}
}

// TestKernelZeroAlloc asserts the scalar and write-back paths allocate
// nothing per update on both specialized families and the reference.
func TestKernelZeroAlloc(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	obj := objective.LogisticL1{Eta: 1e-3}
	idx := []int32{1, 5, 9, 13}
	val := []float64{0.3, -0.7, 1.1, 0.2}
	shift := make([]float64, 16)
	for _, tc := range []struct {
		name string
		k    Kernel
	}{
		{"racy", New(model.NewRacy(16), obj)},
		{"atomic", New(model.NewAtomic(16), obj)},
		{"reference", NewReference(model.NewRacy(16), obj)},
	} {
		if n := testing.AllocsPerRun(100, func() {
			tc.k.Step(idx, val, 1, 0.01)
			tc.k.Update(idx, val, 0.1, 0.01)
			tc.k.UpdateShift(idx, val, 0.1, 0.01, shift)
		}); n != 0 {
			t.Errorf("%s kernel: %v allocs per update round, want 0", tc.name, n)
		}
	}
}

// TestAtomicKernelConcurrent hammers the CAS kernels from many
// goroutines; run under -race it proves the specializations inherit
// Atomic's race-freedom, and the final sum checks no update was lost on
// the UpdateShift path: with g = 0, no regularizer and a shift of −1 at
// step 1, each call adds exactly 1 to every coordinate of the row.
func TestAtomicKernelConcurrent(t *testing.T) {
	const (
		workers = 8
		perW    = 2000
	)
	m := model.NewAtomic(4)
	k := New(m, noneObj{})
	idx := []int32{0, 1, 2, 3}
	val := []float64{1, 1, 1, 1}
	shift := []float64{-1, -1, -1, -1}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k.UpdateShift(idx, val, 0, 1, shift)
				k.Step(idx, val, 1, 1e-9)
				z := k.Dot(idx, val)
				if math.IsNaN(z) {
					t.Error("NaN mid-flight")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// UpdateShift added exactly workers*perW to each coordinate; the tiny Step
	// perturbations cannot push the total below that minus 1.
	want := float64(workers * perW)
	w := m.Snapshot(nil)
	for j, v := range w {
		if v < want-1 || v > want+1 {
			t.Errorf("coordinate %d = %g, want ≈ %g (CAS lost updates?)", j, v, want)
		}
	}
}
