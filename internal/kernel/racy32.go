package kernel

import (
	"math"

	"github.com/isasgd/isasgd/internal/objective"
)

// l1At32 is l1At in float32: η·sign(wj), 0 at ±0, computed with two bit
// ops (sign transfer) — no branch beyond the zero test, no widening.
func l1At32(wj, eta float32) float32 {
	if wj == 0 {
		return 0
	}
	return math.Float32frombits(math.Float32bits(eta)&^(1<<31) | math.Float32bits(wj)&(1<<31))
}

// regAt32 is regAt in float32.
func regAt32(kind regKind, wj, eta float32) float32 {
	switch kind {
	case regL1:
		return l1At32(wj, eta)
	case regL2:
		return eta * wj
	}
	return 0
}

// racy32 is the *model.Racy32 specialization. It operates directly on
// the model's backing []float32 (model.Racy32.Raw32()): plain half-width
// loads, float32 arithmetic, plain half-width stores — the same Hogwild
// semantics as racy64 at half the memory traffic, and the same shape
// method for method. Scalars cross the API as float64 and are narrowed
// once per call. The dots use Dot32's four independent accumulators,
// since the f32 path is only tolerance-bound, not bitwise-bound. Models
// with the blocked layout use this type too: it sees only physical
// storage, and callers feed Slot-remapped indices (and, for UpdateDC, a
// base in the same physical order).
type racy32 struct {
	w   []float32
	obj objective.Objective
	reg regKind
	eta float32
}

func (k *racy32) Dot(idx []int32, val []float32) float64 { return Dot32(k.w, idx, val) }

func (k *racy32) DotClamped(idx []int32, val []float32) float64 {
	return DotClamped32(k.w, idx, val)
}

func (k *racy32) Step(idx []int32, val []float32, y, s float64) {
	k.Update(idx, val, k.obj.Deriv(Dot32(k.w, idx, val), y), s)
}

func (k *racy32) StepClamped(idx []int32, val []float32, y, s float64) {
	if maxIndex(idx) < int32(len(k.w)) {
		k.Step(idx, val, y, s)
		return
	}
	k.updateChecked(idx, val, k.obj.Deriv(DotClamped32(k.w, idx, val), y), s)
}

// Update is racy64.Update in float32: 4-way unrolled sequential bodies
// under one hoisted regularizer switch, shared tail.
func (k *racy32) Update(idx []int32, val []float32, g, s float64) {
	w := k.w
	fg, fs, eta := float32(g), float32(s), k.eta
	if len(val) >= len(idx) {
		val = val[:len(idx)]
	}
	p := 0
	switch k.reg {
	case regL1:
		for ; p+4 <= len(idx); p += 4 {
			j0 := idx[p]
			wj := w[j0]
			w[j0] = wj - fs*(fg*val[p]+l1At32(wj, eta))
			j1 := idx[p+1]
			wj = w[j1]
			w[j1] = wj - fs*(fg*val[p+1]+l1At32(wj, eta))
			j2 := idx[p+2]
			wj = w[j2]
			w[j2] = wj - fs*(fg*val[p+2]+l1At32(wj, eta))
			j3 := idx[p+3]
			wj = w[j3]
			w[j3] = wj - fs*(fg*val[p+3]+l1At32(wj, eta))
		}
	case regL2:
		for ; p+4 <= len(idx); p += 4 {
			j0 := idx[p]
			wj := w[j0]
			w[j0] = wj - fs*(fg*val[p]+eta*wj)
			j1 := idx[p+1]
			wj = w[j1]
			w[j1] = wj - fs*(fg*val[p+1]+eta*wj)
			j2 := idx[p+2]
			wj = w[j2]
			w[j2] = wj - fs*(fg*val[p+2]+eta*wj)
			j3 := idx[p+3]
			wj = w[j3]
			w[j3] = wj - fs*(fg*val[p+3]+eta*wj)
		}
	default:
		for ; p+4 <= len(idx); p += 4 {
			w[idx[p]] -= fs * (fg*val[p] + 0)
			w[idx[p+1]] -= fs * (fg*val[p+1] + 0)
			w[idx[p+2]] -= fs * (fg*val[p+2] + 0)
			w[idx[p+3]] -= fs * (fg*val[p+3] + 0)
		}
	}
	for ; p < len(idx); p++ {
		j := idx[p]
		wj := w[j]
		w[j] = wj - fs*(fg*val[p]+regAt32(k.reg, wj, eta))
	}
}

func (k *racy32) UpdateClamped(idx []int32, val []float32, g, s float64) {
	if maxIndex(idx) < int32(len(k.w)) {
		k.Update(idx, val, g, s)
		return
	}
	k.updateChecked(idx, val, g, s)
}

func (k *racy32) updateChecked(idx []int32, val []float32, g, s float64) {
	w := k.w
	dim := int32(len(w))
	fg, fs := float32(g), float32(s)
	for p, j := range idx {
		if j < dim {
			wj := w[j]
			w[j] = wj - fs*(fg*val[p]+regAt32(k.reg, wj, k.eta))
		}
	}
}

func (k *racy32) UpdateDC(idx []int32, val []float32, g, s, lam float64, base []float64) {
	if lam == 0 {
		k.Update(idx, val, g, s)
		return
	}
	w := k.w
	fg, fs, fl := float32(g), float32(s), float32(lam)
	for p, j := range idx {
		d := fg * val[p]
		wj := w[j]
		d += fl * d * d * (wj - float32(base[j]))
		w[j] = wj - fs*(d+regAt32(k.reg, wj, k.eta))
	}
}
