package kernel

import (
	"math"

	"github.com/isasgd/isasgd/internal/objective"
)

// regKind is the regularizer a specialized kernel fuses into its
// write-back. It is a field, not a type parameter or a type per
// regularizer: doc.go has the measurements behind that.
type regKind uint8

const (
	regNone regKind = iota
	regL1
	regL2
)

// regOf maps a concrete regularizer to its kind and strength; ok is
// false for an out-of-tree one, which only the reference kernels serve.
func regOf(r objective.Regularizer) (kind regKind, eta float64, ok bool) {
	switch reg := r.(type) {
	case objective.L1:
		return regL1, reg.Eta, true
	case objective.L2:
		return regL2, reg.Eta, true
	case objective.None:
		return regNone, 0, true
	}
	return regNone, 0, false
}

// l1At is objective.L1.DerivAt inlined and branch-reduced: η·sign(wj),
// 0 at ±0 — bit-for-bit DerivAt's value for every non-NaN wj. The one
// divergence is wj = NaN, where DerivAt's switch returns 0 but Copysign
// returns ±η; a NaN weight means the run already diverged, both paths
// still produce NaN from the subsequent update, and core.Train's
// finiteness check rejects the result before use. Copysign compiles to two bit ops, so
// the common case is branch-free where the reference's three-way switch
// is not.
func l1At(wj, eta float64) float64 {
	if wj == 0 {
		return 0
	}
	return math.Copysign(eta, wj)
}

// regAt is reg'(wj) for the given kind. The None case returns a literal
// +0, mirroring the reference's zero regularizer contribution so
// negative-zero gradients round-trip bitwise identically.
func regAt(kind regKind, wj, eta float64) float64 {
	switch kind {
	case regL1:
		return l1At(wj, eta)
	case regL2:
		return eta * wj
	}
	return 0
}

// racy64 is the *model.Racy specialization. It operates directly on the
// model's backing []float64 (model.Racy.Raw()): plain loads, fused
// arithmetic, plain stores. Concurrent use has exactly Racy's Hogwild
// semantics — conflicting writers may lose updates; that is the
// algorithm's noise model, not a bug. It is bitwise-identical to
// Reference on the same single-threaded input stream (see
// TestKernelEquivalence).
type racy64 struct {
	w   []float64
	obj objective.Objective
	reg regKind
	eta float64
}

func (k *racy64) Dot(idx []int32, val []float64) float64 { return Dot(k.w, idx, val) }

func (k *racy64) Step(idx []int32, val []float64, y, s float64) {
	k.Update(idx, val, k.obj.Deriv(Dot(k.w, idx, val), y), s)
}

func (k *racy64) StepClamped(idx []int32, val []float64, y, s float64) {
	stepClamped[float64](k, k.obj, len(k.w), idx, val, y, s)
}

// Update is the hot write-back. The loop is 4-way manually unrolled with
// the full load-compute-store body repeated sequentially: each element's
// store completes before the next element's load, so rows with duplicate
// indices (legal kernel input) keep read-after-write semantics, and the
// operation order — hence every rounding — is exactly the rolled loop's.
// What the unroll buys is fewer loop-control ops per element and four
// independent store streams in flight for the out-of-order core; the
// model loads, not the arithmetic, bound this code. The regularizer
// switch is hoisted around the unrolled loop, one body per kind; the
// tail of at most three elements pays regAt's switch per element.
func (k *racy64) Update(idx []int32, val []float64, g, s float64) {
	w, eta := k.w, k.eta
	if len(val) >= len(idx) {
		val = val[:len(idx)]
	}
	p := 0
	switch k.reg {
	case regL1:
		for ; p+4 <= len(idx); p += 4 {
			j0 := idx[p]
			wj := w[j0]
			w[j0] = wj - s*(g*val[p]+l1At(wj, eta))
			j1 := idx[p+1]
			wj = w[j1]
			w[j1] = wj - s*(g*val[p+1]+l1At(wj, eta))
			j2 := idx[p+2]
			wj = w[j2]
			w[j2] = wj - s*(g*val[p+2]+l1At(wj, eta))
			j3 := idx[p+3]
			wj = w[j3]
			w[j3] = wj - s*(g*val[p+3]+l1At(wj, eta))
		}
	case regL2:
		for ; p+4 <= len(idx); p += 4 {
			j0 := idx[p]
			wj := w[j0]
			w[j0] = wj - s*(g*val[p]+eta*wj)
			j1 := idx[p+1]
			wj = w[j1]
			w[j1] = wj - s*(g*val[p+1]+eta*wj)
			j2 := idx[p+2]
			wj = w[j2]
			w[j2] = wj - s*(g*val[p+2]+eta*wj)
			j3 := idx[p+3]
			wj = w[j3]
			w[j3] = wj - s*(g*val[p+3]+eta*wj)
		}
	default:
		for ; p+4 <= len(idx); p += 4 {
			w[idx[p]] -= s * (g*val[p] + 0)
			w[idx[p+1]] -= s * (g*val[p+1] + 0)
			w[idx[p+2]] -= s * (g*val[p+2] + 0)
			w[idx[p+3]] -= s * (g*val[p+3] + 0)
		}
	}
	for ; p < len(idx); p++ {
		j := idx[p]
		wj := w[j]
		w[j] = wj - s*(g*val[p]+regAt(k.reg, wj, eta))
	}
}

func (k *racy64) UpdateDC(idx []int32, val []float64, g, s, lam float64, base []float64) {
	if lam == 0 {
		k.Update(idx, val, g, s)
		return
	}
	w := k.w
	for p, j := range idx {
		d := g * val[p]
		wj := w[j]
		d += lam * d * d * (wj - base[j])
		w[j] = wj - s*(d+regAt(k.reg, wj, k.eta))
	}
}

func (k *racy64) UpdateShift(idx []int32, val []float64, g, s float64, shift []float64) {
	w := k.w
	for p, j := range idx {
		wj := w[j]
		w[j] = wj - s*(g*val[p]+shift[j]+regAt(k.reg, wj, k.eta))
	}
}
