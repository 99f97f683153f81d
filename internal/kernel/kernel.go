package kernel

import (
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
)

// Ops is the per-sample update surface of a kernel over rows whose
// feature values have type V: every operation a single-sample or
// minibatch worker loop performs. Kernel extends Ops[float64] with the
// dense SVRG/SAGA operations; Kernel32 is Ops[float32]. Both precisions
// have the whole surface, so a worker loop written once over V runs
// every feature — adaptive steps, staleness shedding, delay
// compensation, loss feedback — on either.
//
// A kernel holds no mutable state of its own — the model is the only
// thing written — so one value is shared by all of an engine's workers,
// concurrently, with the concurrency semantics of the underlying model
// (CAS for Atomic, Hogwild races for Racy).
//
// The per-coordinate update applied by Step/StepClamped/Update is
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
	// DotClamped is Dot restricted to indices inside the model; indices
	// at or beyond Dim contribute 0 (the streaming/serving convention
	// for out-of-vocabulary features).
	DotClamped(idx []int32, val []V) float64
	// Step performs one complete scalar update for a row with label y
	// and effective step s: z := Dot(row), g := obj.Deriv(z, y), then
	// the fused gradient+regularizer write-back.
	Step(idx []int32, val []V, y, s float64)
	// StepClamped is Step restricted to indices inside the model.
	StepClamped(idx []int32, val []V, y, s float64)
	// Update applies the write-back half only, for a precomputed (and
	// possibly importance-scaled or variance-reduced) derivative g:
	// w[j] -= s·(g·val[k] + reg'(w[j])). Used by the minibatch second
	// phase and the SVRG inner loop.
	Update(idx []int32, val []V, g, s float64)
	// UpdateClamped is Update restricted to indices inside the model —
	// the streaming decomposed-step path (score, observe the loss, then
	// write back) on rows that may carry out-of-vocabulary features.
	UpdateClamped(idx []int32, val []V, g, s float64)
	// UpdateDC is Update with DC-ASGD delay compensation: the update
	// direction d = g·val[k] gains the correction λ·d²·(w[j] − base[j])
	// before the fused write-back, first-order-cancelling the drift the
	// model accumulated since base was read (Zheng et al. 2017). lam = 0
	// is bitwise-identical to Update. base is indexed like the model's
	// storage and must span it; indices must be in range.
	UpdateDC(idx []int32, val []V, g, s, lam float64, base []float64)
}

// Kernel is the float64 kernel: the per-sample surface plus the dense
// operations of the variance-reduced solvers, which stay float64-only.
type Kernel interface {
	Ops[float64]
	// Axpy applies w[j] += s·val[k] over the row support, with no
	// regularization (SAGA's sparse variance-reduction term).
	Axpy(idx []int32, val []float64, s float64)
	// ApplyDense applies w[j] -= s·(g[j] + reg'(w[j])) over all
	// coordinates (SAGA's dense running-average term).
	ApplyDense(g []float64, s float64)
	// AxpyDense applies w[j] += s·v[j] over all coordinates (SVRG's
	// dense µ term).
	AxpyDense(v []float64, s float64)
}

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

// DotClamped returns the sparse dot restricted to in-range indices.
// Rows that are fully in-vocabulary — the steady-state predict case —
// skip the per-element range check entirely after one cheap index scan
// (valid for any index order; kernel inputs are not required sorted).
func (k *Reference) DotClamped(idx []int32, val []float64) float64 {
	m := k.m
	dim := int32(m.Dim())
	if maxIndex(idx) < dim {
		return m.Dot(idx, val)
	}
	s := 0.0
	for kk, j := range idx {
		if j < dim {
			s += val[kk] * m.Get(j)
		}
	}
	return s
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
	g := k.obj.Deriv(k.DotClamped(idx, val), y)
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

// UpdateClamped applies the write-back half restricted to in-range
// indices; fully in-range rows take Update's unchecked loop.
func (k *Reference) UpdateClamped(idx []int32, val []float64, g, s float64) {
	m := k.m
	dim := int32(m.Dim())
	if maxIndex(idx) < dim {
		k.Update(idx, val, g, s)
		return
	}
	reg := k.reg
	for kk, j := range idx {
		if j < dim {
			m.Add(j, -s*(g*val[kk]+reg.DerivAt(m.Get(j))))
		}
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

// Axpy applies the unregularized sparse axpy.
func (k *Reference) Axpy(idx []int32, val []float64, s float64) {
	m := k.m
	for kk, j := range idx {
		m.Add(j, s*val[kk])
	}
}

// ApplyDense applies the fused dense gradient+regularizer update.
func (k *Reference) ApplyDense(g []float64, s float64) {
	m := k.m
	reg := k.reg
	for j := range g {
		jj := int32(j)
		m.Add(jj, -s*(g[j]+reg.DerivAt(m.Get(jj))))
	}
}

// AxpyDense applies the dense axpy.
func (k *Reference) AxpyDense(v []float64, s float64) {
	m := k.m
	for j := range v {
		m.Add(int32(j), s*v[j])
	}
}
