package kernel

import (
	"math"
	"testing"

	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/xrand"
)

// allKinds lists every specialization: the f64 pair, held bitwise to
// Reference, and the three f32 kinds, held to the f64 Reference under the
// kernel32_test.go tolerance contract.
var allKinds = []string{"racy", "atomic", "racy32", "racy32-blocked", "atomic32"}

// underTest is one specialization next to the Reference it is held to,
// both loaded with the same weights and driven with the same logical
// rows: an f64 kind must stay bitwise-identical to a Reference over the
// same storage; an f32 kind sees the row narrowed (and Slot-remapped for
// the blocked layout) and must stay within tol32 of an f64 Reference fed
// the pre-rounded values.
type underTest struct {
	spec, ref model.Params
	k64       Kernel   // f64 kinds
	k32       Kernel32 // f32 kinds
	kr        Kernel
}

func newUnderTest(kind string, dim int, obj objective.Objective, init []float64) *underTest {
	u := &underTest{}
	if kind == "racy" || kind == "atomic" {
		u.spec, u.ref = newModel(kind, dim), newModel(kind, dim)
		u.spec.Load(init)
		u.ref.Load(init)
		u.k64 = New(u.spec, obj)
	} else {
		u.spec, u.ref = newModel32(kind, dim), model.NewRacy(dim)
		u.spec.Load(init)
		u.ref.Load(preRound(init))
		u.k32 = New32(u.spec, obj)
	}
	u.kr = NewReference(u.ref, obj)
	return u
}

func (u *underTest) updateClamped(idx []int32, val []float64, g, s float64) {
	if u.k32 == nil {
		u.k64.UpdateClamped(idx, val, g, s)
		u.kr.UpdateClamped(idx, val, g, s)
		return
	}
	u.k32.UpdateClamped(mapIdx(u.spec, idx), toF32(val), g, s)
	u.kr.UpdateClamped(idx, preRound(val), g, s)
}

// updateDC takes base in logical order; the blocked layout's kernel gets
// it permuted to physical slots, like its indices.
func (u *underTest) updateDC(idx []int32, val []float64, g, s, lam float64, base []float64) {
	if u.k32 == nil {
		u.k64.UpdateDC(idx, val, g, s, lam, base)
		u.kr.UpdateDC(idx, val, g, s, lam, base)
		return
	}
	pbase := base
	if r, ok := u.spec.(*model.Racy32); ok && r.Blocked() {
		pbase = make([]float64, len(r.Raw32()))
		for j, v := range base {
			pbase[r.Slot(int32(j))] = v
		}
	}
	u.k32.UpdateDC(mapIdx(u.spec, idx), toF32(val), g, s, lam, pbase)
	u.kr.UpdateDC(idx, preRound(val), g, s, lam, base)
}

func (u *underTest) require(t *testing.T, stage string) {
	t.Helper()
	if u.k32 == nil {
		requireBitwiseEqual(t, u.spec, u.ref, stage)
	} else {
		requireWithin32(t, u.spec, u.ref, stage)
	}
}

// TestKernelUpdateClampedEquivalence drives the decomposed streaming
// write-back through every specialization with identical inputs, in-range
// and with out-of-vocabulary indices, and holds it to the Reference
// kernel after every row.
func TestKernelUpdateClampedEquivalence(t *testing.T) {
	const (
		dim  = 64
		rows = 40
		nnz  = 9
	)
	for _, kind := range allKinds {
		for _, obj := range testObjectives() {
			for _, overflow := range []bool{false, true} {
				if overflow && kind == "racy32-blocked" {
					continue // blocked is batch-engine-only; rows are pre-validated in-range
				}
				name := kind + "/" + obj.Name()
				if overflow {
					name += "/overflow"
				}
				t.Run(name, func(t *testing.T) {
					rng := xrand.New(0xadaf)
					idx, val, _ := randRows(rng, rows, dim, nnz, overflow)
					init := make([]float64, dim)
					for j := range init {
						init[j] = rng.NormFloat64()
					}
					u := newUnderTest(kind, dim, obj, init)
					for i := range idx {
						s := 0.01 + 0.5*rng.Float64()
						g := rng.NormFloat64()
						u.updateClamped(idx[i], val[i], g, s)
						u.require(t, "UpdateClamped")
					}
				})
			}
		}
	}
}

// TestKernelUpdateDCEquivalence drives the delay-compensated write-back
// through every specialization against the Reference kernel, with a base
// snapshot that drifts away from the live model as updates accumulate —
// the situation the compensation term exists for.
func TestKernelUpdateDCEquivalence(t *testing.T) {
	const (
		dim  = 64
		rows = 40
		nnz  = 9
	)
	for _, kind := range allKinds {
		for _, obj := range testObjectives() {
			t.Run(kind+"/"+obj.Name(), func(t *testing.T) {
				rng := xrand.New(0xdcda)
				idx, val, _ := randRows(rng, rows, dim, nnz, false)
				init := make([]float64, dim)
				for j := range init {
					init[j] = rng.NormFloat64()
				}
				u := newUnderTest(kind, dim, obj, init)
				base := u.ref.Snapshot(nil)
				for i := range idx {
					s := 0.01 + 0.5*rng.Float64()
					g := rng.NormFloat64()
					lam := 0.5 * rng.Float64()
					u.updateDC(idx[i], val[i], g, s, lam, base)
					u.require(t, "UpdateDC")
				}
			})
		}
	}
}

// TestKernelUpdateDCZeroLambda pins the λ = 0 contract: with compensation
// off, UpdateDC must be bitwise-identical to Update — at either
// precision, and including the base slice never being read (nil is legal
// then).
func TestKernelUpdateDCZeroLambda(t *testing.T) {
	const dim = 32
	rng := xrand.New(0x0d0c)
	idx, val, _ := randRows(rng, 10, dim, 6, false)
	for _, kind := range allKinds {
		for _, obj := range testObjectives() {
			init := make([]float64, dim)
			for j := range init {
				init[j] = rng.NormFloat64()
			}
			// Two specializations of the kind, one per entry point; the
			// Reference halves go unused.
			dc := newUnderTest(kind, dim, obj, init)
			plain := newUnderTest(kind, dim, obj, init)
			for i := range idx {
				s := 0.01 + 0.5*rng.Float64()
				g := rng.NormFloat64()
				if dc.k32 == nil {
					dc.k64.UpdateDC(idx[i], val[i], g, s, 0, nil)
					plain.k64.Update(idx[i], val[i], g, s)
				} else {
					pidx, v32 := mapIdx(dc.spec, idx[i]), toF32(val[i])
					dc.k32.UpdateDC(pidx, v32, g, s, 0, nil)
					plain.k32.Update(pidx, v32, g, s)
				}
				requireBitwiseEqual(t, dc.spec, plain.spec, kind+"/"+obj.Name()+"/lambda=0")
			}
		}
	}
}

// adaptiveAllocs counts allocations per round of the write-back entry
// points the adaptive loops use, in-range and out-of-vocabulary.
func adaptiveAllocs[V float32 | float64](k Ops[V], val []V) float64 {
	idx := []int32{1, 5, 9, 13}
	over := []int32{1, 5, 9, 40}
	base := make([]float64, 16)
	return testing.AllocsPerRun(100, func() {
		k.UpdateClamped(idx, val, 0.1, 0.01)
		k.UpdateClamped(over, val, 0.1, 0.01)
		k.UpdateDC(idx, val, 0.1, 0.01, 0.2, base)
	})
}

// TestKernelAdaptiveZeroAlloc asserts the new write-back entry points
// allocate nothing per update, like the paths they extend.
func TestKernelAdaptiveZeroAlloc(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	obj := objective.LogisticL1{Eta: 1e-3}
	val := []float64{0.3, -0.7, 1.1, 0.2}
	for name, n := range map[string]float64{
		"racy":           adaptiveAllocs[float64](New(model.NewRacy(16), obj), val),
		"atomic":         adaptiveAllocs[float64](New(model.NewAtomic(16), obj), val),
		"reference":      adaptiveAllocs[float64](NewReference(model.NewRacy(16), obj), val),
		"racy32":         adaptiveAllocs(New32(model.NewRacy32(16), obj), toF32(val)),
		"racy32-blocked": adaptiveAllocs(New32(model.NewRacy32Blocked(16), obj), toF32(val)),
		"atomic32":       adaptiveAllocs(New32(model.NewAtomic32(16), obj), toF32(val)),
		"reference32":    adaptiveAllocs(New32(model.NewRacy(16), obj), toF32(val)),
	} {
		if n != 0 {
			t.Errorf("%s kernel: %v allocs per adaptive update round, want 0", name, n)
		}
	}
}

// TestKernelUpdateDCDampens is the semantic sanity check behind the
// bitwise tests: with the live weight drifted above the base in the
// gradient's direction of travel, the compensated step must land strictly
// between no step and the uncompensated step.
func TestKernelUpdateDCDampens(t *testing.T) {
	obj := noneObj{}
	idx := []int32{0}
	val := []float64{1.0}
	plain := model.NewRacy(1)
	comp := model.NewRacy(1)
	plain.Load([]float64{1.0})
	comp.Load([]float64{1.0})
	base := []float64{0.5} // live weight drifted +0.5 past the base
	kp := New(plain, obj)
	kc := New(comp, obj)
	g, s, lam := -2.0, 0.1, 0.25
	kp.Update(idx, val, g, s)
	kc.UpdateDC(idx, val, g, s, lam, base)
	wp := plain.Snapshot(nil)[0]
	wc := comp.Snapshot(nil)[0]
	// d = −2, correction = λ·d²·drift = 0.25·4·0.5 = +0.5 ⇒ d̂ = −1.5:
	// smaller magnitude, same sign.
	if !(wc > 1.0 && wc < wp) {
		t.Fatalf("compensated step w=%g not between start 1.0 and plain w=%g", wc, wp)
	}
	if math.Abs(wc-(1.0+0.15)) > 1e-12 {
		t.Fatalf("compensated w = %g, want 1.15", wc)
	}
}
