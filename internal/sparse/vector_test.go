package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/isasgd/isasgd/internal/xrand"
)

func randVector(r *xrand.Rand, dim, nnz int) Vector {
	if nnz > dim {
		nnz = dim
	}
	seen := make(map[int32]bool, nnz)
	var v Vector
	for len(v.Idx) < nnz {
		j := int32(r.Intn(dim))
		if seen[j] {
			continue
		}
		seen[j] = true
		v.Idx = append(v.Idx, j)
	}
	// sort indices (insertion sort; nnz is small in tests)
	for i := 1; i < len(v.Idx); i++ {
		for k := i; k > 0 && v.Idx[k] < v.Idx[k-1]; k-- {
			v.Idx[k], v.Idx[k-1] = v.Idx[k-1], v.Idx[k]
		}
	}
	v.Val = make([]float64, nnz)
	for i := range v.Val {
		v.Val[i] = r.NormFloat64()
	}
	return v
}

func TestValidateOK(t *testing.T) {
	v := Vector{Idx: []int32{0, 3, 7}, Val: []float64{1, -2, 0.5}}
	if err := v.Validate(8); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		v    Vector
		dim  int
	}{
		{"length mismatch", Vector{Idx: []int32{0}, Val: nil}, 4},
		{"unsorted", Vector{Idx: []int32{3, 1}, Val: []float64{1, 2}}, 4},
		{"duplicate", Vector{Idx: []int32{2, 2}, Val: []float64{1, 2}}, 4},
		{"out of range", Vector{Idx: []int32{5}, Val: []float64{1}}, 4},
		{"negative index", Vector{Idx: []int32{-1}, Val: []float64{1}}, 4},
		{"NaN", Vector{Idx: []int32{0}, Val: []float64{math.NaN()}}, 4},
		{"Inf", Vector{Idx: []int32{0}, Val: []float64{math.Inf(1)}}, 4},
	}
	for _, c := range cases {
		if err := c.v.Validate(c.dim); err == nil {
			t.Errorf("%s: Validate accepted invalid vector", c.name)
		}
	}
}

func TestDotMatchesDense(t *testing.T) {
	r := xrand.New(1)
	for trial := 0; trial < 200; trial++ {
		dim := 1 + r.Intn(64)
		v := randVector(r, dim, r.Intn(dim+1))
		w := make([]float64, dim)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		want := 0.0
		for j, x := range toDense(v, dim) {
			want += x * w[j]
		}
		if got := v.Dot(w); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("Dot = %g, dense reference = %g", got, want)
		}
	}
}

func TestAddToMatchesDense(t *testing.T) {
	r := xrand.New(2)
	for trial := 0; trial < 200; trial++ {
		dim := 1 + r.Intn(64)
		v := randVector(r, dim, r.Intn(dim+1))
		scale := r.NormFloat64()
		w1 := make([]float64, dim)
		w2 := make([]float64, dim)
		for i := range w1 {
			w1[i] = r.NormFloat64()
			w2[i] = w1[i]
		}
		v.AddTo(w1, scale)
		for j, x := range toDense(v, dim) {
			w2[j] += scale * x
		}
		if d := maxAbsDiff(w1, w2); d > 1e-12 {
			t.Fatalf("AddTo differs from dense axpy by %g", d)
		}
	}
}

func TestNormSq(t *testing.T) {
	v := Vector{Idx: []int32{1, 4}, Val: []float64{3, 4}}
	if got := v.NormSq(); got != 25 {
		t.Fatalf("NormSq = %g, want 25", got)
	}
	if got := v.Norm2(); got != 5 {
		t.Fatalf("Norm2 = %g, want 5", got)
	}
}

func TestIntersects(t *testing.T) {
	a := Vector{Idx: []int32{1, 5, 9}, Val: []float64{1, 1, 1}}
	b := Vector{Idx: []int32{2, 5}, Val: []float64{1, 1}}
	c := Vector{Idx: []int32{0, 2, 8}, Val: []float64{1, 1, 1}}
	if !Intersects(a, b) {
		t.Error("a and b share index 5 but Intersects = false")
	}
	if Intersects(a, c) {
		t.Error("a and c are disjoint but Intersects = true")
	}
	if Intersects(a, Vector{}) {
		t.Error("empty vector intersects nothing")
	}
}

func TestIntersectsSymmetricProperty(t *testing.T) {
	r := xrand.New(9)
	f := func(seed uint64) bool {
		rr := xrand.New(seed ^ r.Uint64())
		dim := 1 + rr.Intn(32)
		a := randVector(rr, dim, rr.Intn(dim+1))
		b := randVector(rr, dim, rr.Intn(dim+1))
		return Intersects(a, b) == Intersects(b, a) &&
			Intersects(a, b) == (Dot2OverlapCount(a, b) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Dot2OverlapCount counts shared indices; test helper reference.
func Dot2OverlapCount(a, b Vector) int {
	n := 0
	for _, i := range a.Idx {
		for _, j := range b.Idx {
			if i == j {
				n++
			}
		}
	}
	return n
}

func TestFromDenseRoundTrip(t *testing.T) {
	w := []float64{0, 1.5, 0, -2, 0, 0, 3}
	v, err := FromDense(w)
	if err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", v.NNZ())
	}
	if maxAbsDiff(w, toDense(v, len(w))) != 0 {
		t.Fatal("FromDense round trip mismatch")
	}
}

func TestFromDenseRejectsNonFinite(t *testing.T) {
	if _, err := FromDense([]float64{1, math.NaN()}); err == nil {
		t.Error("FromDense accepted NaN")
	}
	if _, err := FromDense([]float64{math.Inf(-1)}); err == nil {
		t.Error("FromDense accepted Inf")
	}
}

// toDense scatters v into a fresh dense vector of length dim.
func toDense(v Vector, dim int) []float64 {
	w := make([]float64, dim)
	for k, j := range v.Idx {
		w[j] = v.Val[k]
	}
	return w
}

// maxAbsDiff returns max_i |a_i − b_i| for equal-length vectors.
func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		m = max(m, math.Abs(a[i]-b[i]))
	}
	return m
}
