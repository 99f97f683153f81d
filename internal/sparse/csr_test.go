package sparse

import (
	"testing"

	"github.com/isasgd/isasgd/internal/xrand"
)

func buildTestCSR(t *testing.T) *CSR {
	t.Helper()
	b := NewCSRBuilder(6)
	b.Append(Vector{Idx: []int32{0, 2}, Val: []float64{1, 2}})
	b.Append(Vector{Idx: []int32{1}, Val: []float64{3}})
	b.Append(Vector{}) // empty row
	b.Append(Vector{Idx: []int32{0, 3, 5}, Val: []float64{-1, 4, 0.5}})
	return b.Build()
}

func TestCSRBasics(t *testing.T) {
	m := buildTestCSR(t)
	if m.Rows() != 4 {
		t.Fatalf("Rows = %d, want 4", m.Rows())
	}
	if m.NNZ() != 6 {
		t.Fatalf("NNZ = %d, want 6", m.NNZ())
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	r0 := m.Row(0)
	if r0.NNZ() != 2 || r0.Idx[1] != 2 || r0.Val[1] != 2 {
		t.Fatalf("Row(0) = %+v", r0)
	}
	if m.Row(2).NNZ() != 0 {
		t.Fatal("Row(2) should be empty")
	}
	wantDensity := 6.0 / (4 * 6)
	if m.Density() != wantDensity {
		t.Fatalf("Density = %g, want %g", m.Density(), wantDensity)
	}
}

func TestCSRValidateCatchesCorruption(t *testing.T) {
	m := buildTestCSR(t)
	m.IndPtr[2] = 99
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted IndPtr")
	}

	m = buildTestCSR(t)
	m.Idx[0] = 100 // out of dim range
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range column")
	}

	m = buildTestCSR(t)
	m.IndPtr[0] = 1
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted IndPtr[0] != 0")
	}
}

func TestCSRSelect(t *testing.T) {
	m := buildTestCSR(t)
	s := m.Select([]int{3, 3, 0})
	if s.Rows() != 3 {
		t.Fatalf("Select rows = %d, want 3", s.Rows())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("selected matrix invalid: %v", err)
	}
	if s.Row(0).NNZ() != 3 || s.Row(1).NNZ() != 3 || s.Row(2).NNZ() != 2 {
		t.Fatal("Select did not copy the requested rows")
	}
	// Mutating the selection must not affect the original.
	s.Val[0] = 42
	if m.Row(3).Val[0] == 42 {
		t.Fatal("Select shares storage with source")
	}
}

func TestCSRSelectEmpty(t *testing.T) {
	m := buildTestCSR(t)
	s := m.Select(nil)
	if s.Rows() != 0 || s.NNZ() != 0 {
		t.Fatalf("empty Select: rows=%d nnz=%d", s.Rows(), s.NNZ())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("empty matrix invalid: %v", err)
	}
}

func TestCSRBuilderLarge(t *testing.T) {
	r := xrand.New(10)
	const dim, rows = 128, 500
	b := NewCSRBuilder(dim)
	total := 0
	for i := 0; i < rows; i++ {
		v := randVector(r, dim, r.Intn(10))
		total += v.NNZ()
		b.Append(v)
	}
	if b.Rows() != rows {
		t.Fatalf("builder Rows = %d", b.Rows())
	}
	m := b.Build()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if int(m.NNZ()) != total {
		t.Fatalf("NNZ = %d, want %d", m.NNZ(), total)
	}
}

func TestDenseKernels(t *testing.T) {
	if got := DenseNormSq([]float64{3, 4}); got != 25 {
		t.Fatalf("DenseNormSq = %g", got)
	}
}

func BenchmarkSparseDot(b *testing.B) {
	r := xrand.New(1)
	const dim = 1 << 20
	v := randVector(r, dim, 30)
	w := make([]float64, dim)
	for i := range w {
		w[i] = 1
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += v.Dot(w)
	}
	_ = sink
}

func BenchmarkSparseAddTo(b *testing.B) {
	r := xrand.New(1)
	const dim = 1 << 20
	v := randVector(r, dim, 30)
	w := make([]float64, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.AddTo(w, 1e-9)
	}
}
