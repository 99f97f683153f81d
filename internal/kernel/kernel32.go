package kernel

import (
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
)

// reference32 is the generic float32 fallback: float32 rows applied
// through the model.Params and objective.Regularizer interfaces, for
// out-of-tree model or regularizer implementations. Arithmetic runs in
// float64 (the interfaces are float64), so it is slower AND differently
// rounded than the specializations — a compatibility path, not a spec.
// The f32 specializations' executable spec is the f64 Reference under
// the tolerance contract.
type reference32 struct {
	m   model.Params
	obj objective.Objective
	reg objective.Regularizer
}

func (k *reference32) Dot(idx []int32, val []float32) float64 {
	m := k.m
	s := 0.0
	for p, j := range idx {
		s += float64(val[p]) * m.Get(j)
	}
	return s
}

func (k *reference32) DotClamped(idx []int32, val []float32) float64 {
	m := k.m
	dim := int32(m.Dim())
	s := 0.0
	for p, j := range idx {
		if j < dim {
			s += float64(val[p]) * m.Get(j)
		}
	}
	return s
}

func (k *reference32) Step(idx []int32, val []float32, y, s float64) {
	k.Update(idx, val, k.obj.Deriv(k.Dot(idx, val), y), s)
}

func (k *reference32) StepClamped(idx []int32, val []float32, y, s float64) {
	k.UpdateClamped(idx, val, k.obj.Deriv(k.DotClamped(idx, val), y), s)
}

func (k *reference32) Update(idx []int32, val []float32, g, s float64) {
	k.UpdateDC(idx, val, g, s, 0, nil)
}

func (k *reference32) UpdateClamped(idx []int32, val []float32, g, s float64) {
	m := k.m
	reg := k.reg
	dim := int32(m.Dim())
	for p, j := range idx {
		if j < dim {
			m.Add(j, -s*(g*float64(val[p])+reg.DerivAt(m.Get(j))))
		}
	}
}

func (k *reference32) UpdateDC(idx []int32, val []float32, g, s, lam float64, base []float64) {
	m := k.m
	reg := k.reg
	for p, j := range idx {
		d := g * float64(val[p])
		wj := m.Get(j)
		if lam != 0 {
			d += lam * d * d * (wj - base[j])
		}
		m.Add(j, -s*(d+reg.DerivAt(wj)))
	}
}
