// Package sparse implements the index-compressed sparse vectors and CSR
// matrices that every trainer in this repository is built on.
//
// A stochastic gradient of a generalized linear model is a scaled copy of
// the training sample, so it has the sample's sparsity (1e-3 … 1e-7 of
// the dimensionality) and updates touch only nnz coordinates — the
// paper's Figure-1 argument. Strict SVRG adds the dense true gradient µ
// every iteration and so pays O(d) per step; this repository's SVRG
// (core.NewSVRG) is the sparse form, which does not.
package sparse

import (
	"errors"
	"fmt"
	"math"
)

// Vector is an index-compressed sparse vector: only non-zero coordinates
// are stored, as parallel (index, value) slices sorted by ascending index
// with no duplicates. The zero value is an empty vector.
type Vector struct {
	Idx []int32
	Val []float64
}

// NNZ returns the number of stored non-zeros.
func (v Vector) NNZ() int { return len(v.Idx) }

// Validate checks structural invariants: equal slice lengths, strictly
// ascending indices, all indices inside [0, dim), and finite values.
func (v Vector) Validate(dim int) error {
	if len(v.Idx) != len(v.Val) {
		return fmt.Errorf("sparse: index/value length mismatch %d != %d", len(v.Idx), len(v.Val))
	}
	prev := int32(-1)
	for k, j := range v.Idx {
		if j <= prev {
			return fmt.Errorf("sparse: indices not strictly ascending at position %d (%d after %d)", k, j, prev)
		}
		if int(j) >= dim || j < 0 {
			return fmt.Errorf("sparse: index %d out of range [0,%d)", j, dim)
		}
		if math.IsNaN(v.Val[k]) || math.IsInf(v.Val[k], 0) {
			return fmt.Errorf("sparse: non-finite value %g at index %d", v.Val[k], j)
		}
		prev = j
	}
	return nil
}

// Dot returns the inner product of v with a dense vector w.
// Indices of v outside w are an error in the caller; this hot-path routine
// does not bounds-check beyond Go's own slice checks.
func (v Vector) Dot(w []float64) float64 {
	s := 0.0
	for k, j := range v.Idx {
		s += v.Val[k] * w[j]
	}
	return s
}

// AddTo accumulates w += scale * v into the dense vector w.
func (v Vector) AddTo(w []float64, scale float64) {
	for k, j := range v.Idx {
		w[j] += scale * v.Val[k]
	}
}

// NormSq returns the squared Euclidean norm of v.
func (v Vector) NormSq() float64 {
	s := 0.0
	for _, x := range v.Val {
		s += x * x
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 { return math.Sqrt(v.NormSq()) }

// Intersects reports whether a and b share at least one index. This is the
// conflict-graph adjacency predicate of the paper's Section 3.
func Intersects(a, b Vector) bool {
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] < b.Idx[j]:
			i++
		case a.Idx[i] > b.Idx[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// FromDense builds a sparse vector from a dense slice, dropping exact
// zeros. It returns an error on non-finite entries.
func FromDense(w []float64) (Vector, error) {
	var v Vector
	for j, x := range w {
		if x == 0 {
			continue
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return Vector{}, errors.New("sparse: non-finite entry in dense source")
		}
		v.Idx = append(v.Idx, int32(j))
		v.Val = append(v.Val, x)
	}
	return v, nil
}
