package kernel

import (
	"math"
	"sync/atomic"

	"github.com/isasgd/isasgd/internal/objective"
)

// atomic32 is the *model.Atomic32 specialization. It operates directly
// on the model's atomic.Uint32 bit patterns (model.Atomic32.Bits32()):
// the same fused CAS discipline as atomic64 — the regularizer derivative
// is evaluated on the very value the compare-and-swap is based on — at
// half the width, so a CAS failure re-reads 4 bytes instead of 8. The
// update loops stay rolled for the same reason; the unchecked dot shares
// Dot32's unrolled-load structure via four independent accumulators.
type atomic32 struct {
	bits []atomic.Uint32
	obj  objective.Objective
	reg  regKind
	eta  float32
}

// Dot accumulates in float32 and widens once.
func (k *atomic32) Dot(idx []int32, val []float32) float64 {
	bits := k.bits
	var s0, s1, s2, s3 float32
	p := 0
	if len(val) >= len(idx) {
		val = val[:len(idx)]
	}
	for ; p+4 <= len(idx); p += 4 {
		s0 += val[p] * math.Float32frombits(bits[idx[p]].Load())
		s1 += val[p+1] * math.Float32frombits(bits[idx[p+1]].Load())
		s2 += val[p+2] * math.Float32frombits(bits[idx[p+2]].Load())
		s3 += val[p+3] * math.Float32frombits(bits[idx[p+3]].Load())
	}
	for ; p < len(idx); p++ {
		s0 += val[p] * math.Float32frombits(bits[idx[p]].Load())
	}
	return float64((s0 + s1) + (s2 + s3))
}

// DotClamped keeps the range check inline: always-taken and predicted on
// in-vocabulary rows.
func (k *atomic32) DotClamped(idx []int32, val []float32) float64 {
	bits := k.bits
	dim := int32(len(bits))
	var s float32
	for p, j := range idx {
		if j < dim {
			s += val[p] * math.Float32frombits(bits[j].Load())
		}
	}
	return float64(s)
}

func (k *atomic32) Step(idx []int32, val []float32, y, s float64) {
	k.Update(idx, val, k.obj.Deriv(k.Dot(idx, val), y), s)
}

func (k *atomic32) StepClamped(idx []int32, val []float32, y, s float64) {
	if maxIndex(idx) < int32(len(k.bits)) {
		k.Step(idx, val, y, s)
		return
	}
	k.updateChecked(idx, val, k.obj.Deriv(k.DotClamped(idx, val), y), s)
}

func (k *atomic32) Update(idx []int32, val []float32, g, s float64) {
	bits := k.bits
	fg, fs := float32(g), float32(s)
	for p, j := range idx {
		casReg32(&bits[j], fg*val[p], fs, k.reg, k.eta)
	}
}

func (k *atomic32) UpdateClamped(idx []int32, val []float32, g, s float64) {
	if maxIndex(idx) < int32(len(k.bits)) {
		k.Update(idx, val, g, s)
		return
	}
	k.updateChecked(idx, val, g, s)
}

func (k *atomic32) updateChecked(idx []int32, val []float32, g, s float64) {
	bits := k.bits
	dim := int32(len(bits))
	fg, fs := float32(g), float32(s)
	for p, j := range idx {
		if j < dim {
			casReg32(&bits[j], fg*val[p], fs, k.reg, k.eta)
		}
	}
}

func (k *atomic32) UpdateDC(idx []int32, val []float32, g, s, lam float64, base []float64) {
	if lam == 0 {
		k.Update(idx, val, g, s)
		return
	}
	bits := k.bits
	fg, fs, fl := float32(g), float32(s), float32(lam)
	for p, j := range idx {
		casDC32(&bits[j], fg*val[p], fs, fl, float32(base[j]), k.reg, k.eta)
	}
}

// casReg32 retries w ← w − s·(gv + reg'(w)) until the CAS lands.
func casReg32(b *atomic.Uint32, gv, s float32, kind regKind, eta float32) {
	for {
		old := b.Load()
		wj := math.Float32frombits(old)
		next := math.Float32bits(wj - s*(gv+regAt32(kind, wj, eta)))
		if b.CompareAndSwap(old, next) {
			return
		}
	}
}

// casDC32 is casDC in float32.
func casDC32(b *atomic.Uint32, d, s, lam, base float32, kind regKind, eta float32) {
	for {
		old := b.Load()
		wj := math.Float32frombits(old)
		dd := d + lam*d*d*(wj-base)
		next := math.Float32bits(wj - s*(dd+regAt32(kind, wj, eta)))
		if b.CompareAndSwap(old, next) {
			return
		}
	}
}
