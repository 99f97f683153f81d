package kernel

import (
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
)

// Ops is the per-sample update surface of a kernel over rows whose
// feature values have type V: every operation a worker loop performs.
// Kernel is Ops[float64] and Kernel32 is Ops[float32]. Both precisions
// have the whole surface, so a worker loop written once over V runs
// every feature — adaptive steps, staleness shedding, delay
// compensation, gradient-norm recording, variance reduction — on either.
//
// A kernel holds no mutable state of its own — the model is the only
// thing written — so one value is shared by all of an engine's workers,
// concurrently, with the concurrency semantics of the underlying model
// (CAS for Atomic, Hogwild races for Racy).
//
// The per-coordinate update applied by Step, StepClamped and Update is
//
//	w[j] -= s·(g·x[k] + reg'(w[j]))
//
// with the regularizer derivative evaluated on the same load that the
// write reads — one pass, no redundant Get. Scalars cross the API as
// float64 in both precisions — the label, step size and derivative are
// per-row values whose conversion cost is nothing next to the
// per-coordinate loads; the float32 kernels narrow them once per call
// and do all per-coordinate arithmetic in float32, so their results
// differ from the float64 kernels' by float32 rounding (the tolerance
// contract is tested in kernel32_test.go).
type Ops[V float32 | float64] interface {
	// Dot returns Σ_k val[k]·w[idx[k]].
	Dot(idx []int32, val []V) float64
	// Step performs one complete scalar update for a row with label y
	// and effective step s: z := Dot(row), g := obj.Deriv(z, y), then
	// the fused gradient+regularizer write-back.
	Step(idx []int32, val []V, y, s float64)
	// StepClamped is Step restricted to indices inside the model;
	// indices at or beyond Dim contribute nothing and are not written
	// (the serving convention for out-of-vocabulary features).
	StepClamped(idx []int32, val []V, y, s float64)
	// Update applies the write-back half only, for a precomputed (and
	// possibly importance-scaled) derivative g:
	// w[j] -= s·(g·val[k] + reg'(w[j])).
	Update(idx []int32, val []V, g, s float64)
	// UpdateDC is Update with DC-ASGD delay compensation: the update
	// direction d = g·val[k] gains the correction λ·d²·(w[j] − base[j])
	// before the fused write-back, first-order-cancelling the drift the
	// model accumulated since base was read (Zheng et al. 2017). lam = 0
	// is bitwise-identical to Update. base is indexed like the model's
	// storage and must span it; indices must be in range.
	UpdateDC(idx []int32, val []V, g, s, lam float64, base []float64)
	// UpdateShift is Update with a per-coordinate shift added to the
	// direction on the row's support: w[j] -= s·(g·val[k] + shift[j] +
	// reg'(w[j])). It is the sparse SVRG write-back, with g the
	// derivative difference ℓ'(w·x) − ℓ'(s̃·x) and shift the mean
	// gradient µ_j scaled by D_j = n/n_j. shift is indexed like the
	// model's storage and must span it.
	UpdateShift(idx []int32, val []V, g, s float64, shift []float64)
}

// Kernel is the float64 kernel.
type Kernel = Ops[float64]

// Kernel32 is the float32 kernel: fused sparse SGD updates against a
// float32 model, consuming float32 feature rows so both the weight and
// feature streams run at half the f64 path's memory traffic.
type Kernel32 = Ops[float32]

// New returns the fastest kernel available for the concrete (model,
// regularizer) pair: the storage's specialization when both are
// recognized, the interface-based Reference kernel otherwise. The
// selection is stable for the lifetime of the model, so callers bind
// once at construction and reuse the kernel for every update.
func New(m model.Params, obj objective.Objective) Kernel {
	if reg, eta, ok := regOf(obj.Reg()); ok {
		switch mm := m.(type) {
		case *model.Racy:
			return &racy64{w: mm.Raw(), obj: obj, reg: reg, eta: eta}
		case *model.Atomic:
			return &atomic64{bits: mm.Bits(), obj: obj, reg: reg, eta: eta}
		}
	}
	return NewReference(m, obj)
}

// New32 is New for the float32 models; anything else gets the
// interface-based fallback.
func New32(m model.Params, obj objective.Objective) Kernel32 {
	if reg, eta, ok := regOf(obj.Reg()); ok {
		switch mm := m.(type) {
		case *model.Racy32:
			return &racy32{w: mm.Raw32(), obj: obj, reg: reg, eta: float32(eta)}
		case *model.Atomic32:
			return &atomic32{bits: mm.Bits32(), obj: obj, reg: reg, eta: float32(eta)}
		}
	}
	return &reference32{m: m, obj: obj, reg: obj.Reg()}
}

// stepClamped is StepClamped for a kernel k over a model of dim
// coordinates: a row wholly inside the model takes k.Step; any other row
// is scored and then written one in-range element at a time, through
// k's own Dot and Update. The update loop never needs it — the streaming
// window drops out-of-range features when it admits a row — so the
// per-element calls buy one definition for every kernel type. For the
// f64 kernels the result is bitwise the rolled checked loop's: the
// score sums the same products in the same order, and each coordinate's
// write-back depends on that coordinate alone.
func stepClamped[V float32 | float64](k Ops[V], obj objective.Objective, dim int, idx []int32, val []V, y, s float64) {
	if maxIndex(idx) < int32(dim) {
		k.Step(idx, val, y, s)
		return
	}
	z := 0.0
	for p, j := range idx {
		if j < int32(dim) {
			z += k.Dot(idx[p:p+1], val[p:p+1])
		}
	}
	g := obj.Deriv(z, y)
	for p, j := range idx {
		if j < int32(dim) {
			k.Update(idx[p:p+1], val[p:p+1], g, s)
		}
	}
}

// NewReference returns the generic interface-dispatch kernel — the
// executable specification every specialization is tested against, and
// the fallback for out-of-tree model or regularizer implementations.
// Its loops are written in exactly the seed implementation's shape
// (z := m.Dot; g := obj.Deriv; m.Add(j, -s*(g*val[k]+reg.DerivAt(m.Get(j))))),
// so it also serves as the pre-refactor baseline in benchmarks.
func NewReference(m model.Params, obj objective.Objective) Kernel {
	return &Reference{m: m, obj: obj, reg: obj.Reg()}
}

// Reference is the generic kernel over the model.Params and
// objective.Regularizer interfaces. See NewReference.
type Reference struct {
	m   model.Params
	obj objective.Objective
	reg objective.Regularizer
}

// Dot returns the sparse dot via the model interface.
func (k *Reference) Dot(idx []int32, val []float64) float64 {
	return k.m.Dot(idx, val)
}

// Step performs one fused scalar update through the interfaces.
func (k *Reference) Step(idx []int32, val []float64, y, s float64) {
	m := k.m
	reg := k.reg
	g := k.obj.Deriv(m.Dot(idx, val), y)
	for kk, j := range idx {
		m.Add(j, -s*(g*val[kk]+reg.DerivAt(m.Get(j))))
	}
}

// StepClamped is Step restricted to in-range indices. The bound is
// derived once; fully in-range rows take Step's unchecked loops (the
// score and write-back are then identical term for term).
func (k *Reference) StepClamped(idx []int32, val []float64, y, s float64) {
	m := k.m
	dim := int32(m.Dim())
	if maxIndex(idx) < dim {
		k.Step(idx, val, y, s)
		return
	}
	reg := k.reg
	z := 0.0
	for kk, j := range idx {
		if j < dim {
			z += val[kk] * m.Get(j)
		}
	}
	g := k.obj.Deriv(z, y)
	for kk, j := range idx {
		if j < dim {
			m.Add(j, -s*(g*val[kk]+reg.DerivAt(m.Get(j))))
		}
	}
}

// Update applies the write-back half for a precomputed derivative.
func (k *Reference) Update(idx []int32, val []float64, g, s float64) {
	m := k.m
	reg := k.reg
	for kk, j := range idx {
		m.Add(j, -s*(g*val[kk]+reg.DerivAt(m.Get(j))))
	}
}

// UpdateDC applies the delay-compensated write-back through the
// interfaces. The regularizer derivative is evaluated on the same load
// the compensation term reads.
func (k *Reference) UpdateDC(idx []int32, val []float64, g, s, lam float64, base []float64) {
	if lam == 0 {
		k.Update(idx, val, g, s)
		return
	}
	m := k.m
	reg := k.reg
	for kk, j := range idx {
		d := g * val[kk]
		wj := m.Get(j)
		d += lam * d * d * (wj - base[j])
		m.Add(j, -s*(d+reg.DerivAt(wj)))
	}
}

// UpdateShift applies the shifted write-back through the interfaces.
func (k *Reference) UpdateShift(idx []int32, val []float64, g, s float64, shift []float64) {
	m := k.m
	reg := k.reg
	for kk, j := range idx {
		m.Add(j, -s*(g*val[kk]+shift[j]+reg.DerivAt(m.Get(j))))
	}
}
