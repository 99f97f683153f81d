package sparse

import "fmt"

// CSR is a compressed-sparse-row matrix. Row i occupies positions
// IndPtr[i]..IndPtr[i+1] of Idx/Val. Rows share backing arrays, so Row is
// allocation-free — this is the storage format for all training sets.
type CSR struct {
	Dim    int // number of columns (feature dimensionality)
	IndPtr []int64
	Idx    []int32
	Val    []float64

	// val32 is the lazily-materialized float32 copy of Val for the
	// half-width kernels; see EnsureVal32 in f32.go.
	val32 []float32
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return len(m.IndPtr) - 1 }

// NNZ returns the total number of stored non-zeros.
func (m *CSR) NNZ() int64 { return m.IndPtr[len(m.IndPtr)-1] }

// Row returns row i as a Vector sharing the matrix's backing arrays.
// The caller must not mutate it.
func (m *CSR) Row(i int) Vector {
	lo, hi := m.IndPtr[i], m.IndPtr[i+1]
	return Vector{Idx: m.Idx[lo:hi], Val: m.Val[lo:hi]}
}

// Density returns NNZ / (Rows*Dim), the paper's ∇f_i sparsity measure
// (Table 1 column "∇fi-Spa.").
func (m *CSR) Density() float64 {
	if m.Rows() == 0 || m.Dim == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.Rows()) * float64(m.Dim))
}

// Validate checks CSR structural invariants and each row's invariants.
func (m *CSR) Validate() error {
	if len(m.IndPtr) == 0 {
		return fmt.Errorf("sparse: empty IndPtr")
	}
	if m.IndPtr[0] != 0 {
		return fmt.Errorf("sparse: IndPtr[0] = %d, want 0", m.IndPtr[0])
	}
	for i := 1; i < len(m.IndPtr); i++ {
		if m.IndPtr[i] < m.IndPtr[i-1] {
			return fmt.Errorf("sparse: IndPtr not monotone at %d", i)
		}
	}
	if total := m.IndPtr[len(m.IndPtr)-1]; total != int64(len(m.Idx)) || total != int64(len(m.Val)) {
		return fmt.Errorf("sparse: IndPtr end %d does not match storage (%d idx, %d val)",
			total, len(m.Idx), len(m.Val))
	}
	for i := 0; i < m.Rows(); i++ {
		if err := m.Row(i).Validate(m.Dim); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// Select returns a new CSR containing rows[k] = m.Row(rows[k]) in order,
// copying the data. It is used by the importance-balancing rearrangement
// (Algorithm 3) to materialize the permuted dataset.
func (m *CSR) Select(rows []int) *CSR {
	b := NewCSRBuilder(m.Dim)
	for _, r := range rows {
		b.Append(m.Row(r))
	}
	return b.Build()
}

// CSRBuilder assembles a CSR row by row.
type CSRBuilder struct {
	dim    int
	indPtr []int64
	idx    []int32
	val    []float64
}

// NewCSRBuilder returns a builder for matrices with dim columns.
func NewCSRBuilder(dim int) *CSRBuilder {
	return &CSRBuilder{dim: dim, indPtr: []int64{0}}
}

// Append adds a row. The vector is copied.
func (b *CSRBuilder) Append(v Vector) {
	b.idx = append(b.idx, v.Idx...)
	b.val = append(b.val, v.Val...)
	b.indPtr = append(b.indPtr, int64(len(b.idx)))
}

// Rows returns the number of rows appended so far.
func (b *CSRBuilder) Rows() int { return len(b.indPtr) - 1 }

// Build finalizes the matrix. The builder must not be used afterwards.
func (b *CSRBuilder) Build() *CSR {
	return &CSR{Dim: b.dim, IndPtr: b.indPtr, Idx: b.idx, Val: b.val}
}
