package kernel

import (
	"math"
	"sync/atomic"

	"github.com/isasgd/isasgd/internal/objective"
)

// atomic64 is the *model.Atomic specialization. It operates directly on
// the model's atomic.Uint64 bit patterns (model.Atomic.Bits()). Unlike
// the seed's reg.DerivAt(m.Get(j)) + m.Add(j, …) pair — one extra atomic
// load per coordinate — the fused CAS loop evaluates the regularizer
// derivative on the very value the compare-and-swap is based on, so each
// attempt costs exactly one load. Under contention that makes the
// regularizer term at least as fresh as the seed's (which froze it at
// the pre-Add load); single-threaded the two are bitwise-identical. The
// CAS, not the loop shape, bounds this kernel, so every loop stays
// rolled and the regularizer is resolved per element inside casReg.
type atomic64 struct {
	bits []atomic.Uint64
	obj  objective.Objective
	reg  regKind
	eta  float64
}

func (k *atomic64) Dot(idx []int32, val []float64) float64 {
	s := 0.0
	for p, j := range idx {
		s += val[p] * math.Float64frombits(k.bits[j].Load())
	}
	return s
}

func (k *atomic64) Step(idx []int32, val []float64, y, s float64) {
	k.Update(idx, val, k.obj.Deriv(k.Dot(idx, val), y), s)
}

func (k *atomic64) StepClamped(idx []int32, val []float64, y, s float64) {
	stepClamped[float64](k, k.obj, len(k.bits), idx, val, y, s)
}

func (k *atomic64) Update(idx []int32, val []float64, g, s float64) {
	bits := k.bits
	for p, j := range idx {
		casReg(&bits[j], g*val[p], s, k.reg, k.eta)
	}
}

func (k *atomic64) UpdateDC(idx []int32, val []float64, g, s, lam float64, base []float64) {
	if lam == 0 {
		k.Update(idx, val, g, s)
		return
	}
	bits := k.bits
	for p, j := range idx {
		casDC(&bits[j], g*val[p], s, lam, base[j], k.reg, k.eta)
	}
}

func (k *atomic64) UpdateShift(idx []int32, val []float64, g, s float64, shift []float64) {
	bits := k.bits
	for p, j := range idx {
		casReg(&bits[j], g*val[p]+shift[j], s, k.reg, k.eta)
	}
}

// casReg retries w ← w − s·(gv + reg'(w)) until the CAS lands.
func casReg(b *atomic.Uint64, gv, s float64, kind regKind, eta float64) {
	for {
		old := b.Load()
		wj := math.Float64frombits(old)
		next := math.Float64bits(wj - s*(gv+regAt(kind, wj, eta)))
		if b.CompareAndSwap(old, next) {
			return
		}
	}
}

// casDC is the delay-compensated CAS loop: it retries
// w ← w − s·(d + λ·d²·(w−base) + reg'(w)), re-deriving the correction
// term from the very load each attempt is based on, so a retry
// compensates against the drift it actually observed, not a stale one.
func casDC(b *atomic.Uint64, d, s, lam, base float64, kind regKind, eta float64) {
	for {
		old := b.Load()
		wj := math.Float64frombits(old)
		dd := d + lam*d*d*(wj-base)
		next := math.Float64bits(wj - s*(dd+regAt(kind, wj, eta)))
		if b.CompareAndSwap(old, next) {
			return
		}
	}
}
