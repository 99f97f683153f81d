// Package dataset provides the training-set container used by all
// solvers, a LibSVM-format reader/writer, the Table-1 statistics (density,
// ψ, ρ), and synthetic generators that reproduce the scale signatures of
// the paper's four evaluation datasets (News20, URL, KDD2010 Algebra,
// KDD2010 Bridge).
package dataset

import (
	"fmt"
	"math"

	"github.com/isasgd/isasgd/internal/sparse"
	"github.com/isasgd/isasgd/internal/xrand"
)

// Dataset is a labeled sparse design matrix. Labels are ±1 for the
// classification objectives; regression objectives accept any finite
// label.
type Dataset struct {
	Name string
	X    *sparse.CSR
	Y    []float64
}

// N returns the number of samples.
func (d *Dataset) N() int { return d.X.Rows() }

// Dim returns the feature dimensionality.
func (d *Dataset) Dim() int { return d.X.Dim }

// Validate checks structural invariants: matching row/label counts, a
// valid CSR, and finite labels.
func (d *Dataset) Validate() error {
	if d.X == nil {
		return fmt.Errorf("dataset %q: nil design matrix", d.Name)
	}
	if err := d.X.Validate(); err != nil {
		return fmt.Errorf("dataset %q: %w", d.Name, err)
	}
	if d.X.Rows() != len(d.Y) {
		return fmt.Errorf("dataset %q: %d rows but %d labels", d.Name, d.X.Rows(), len(d.Y))
	}
	for i, y := range d.Y {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return fmt.Errorf("dataset %q: non-finite label %g at row %d", d.Name, y, i)
		}
	}
	return nil
}

// Reorder returns a copy of d with rows permuted into the given order
// (the materialization step of Algorithm 3/4's rearrangement Dr).
func (d *Dataset) Reorder(order []int) *Dataset {
	y := make([]float64, len(order))
	for k, i := range order {
		y[k] = d.Y[i]
	}
	return &Dataset{Name: d.Name, X: d.X.Select(order), Y: y}
}

// SplitTrainTest partitions d into a training and a held-out test set by
// a uniformly random row split. testFrac ∈ (0, 1) is the test fraction;
// at least one row lands on each side for non-trivial datasets. The
// split is deterministic in seed.
func (d *Dataset) SplitTrainTest(testFrac float64, seed uint64) (train, test *Dataset, err error) {
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset %q: testFrac must be in (0,1), got %g", d.Name, testFrac)
	}
	n := d.N()
	if n < 2 {
		return nil, nil, fmt.Errorf("dataset %q: need at least 2 rows to split, have %d", d.Name, n)
	}
	nTest := int(float64(n) * testFrac)
	if nTest < 1 {
		nTest = 1
	}
	if nTest > n-1 {
		nTest = n - 1
	}
	perm := xrand.New(seed ^ 0x7e57_5b17).Perm(n)
	test = d.Reorder(perm[:nTest])
	train = d.Reorder(perm[nTest:])
	train.Name = d.Name + "-train"
	test.Name = d.Name + "-test"
	return train, test, nil
}

// FromRows builds a dataset from explicit rows; rows are copied.
func FromRows(name string, dim int, rows []sparse.Vector, y []float64) (*Dataset, error) {
	if len(rows) != len(y) {
		return nil, fmt.Errorf("dataset %q: %d rows but %d labels", name, len(rows), len(y))
	}
	b := sparse.NewCSRBuilder(dim)
	for _, r := range rows {
		b.Append(r)
	}
	d := &Dataset{Name: name, X: b.Build(), Y: y}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Stats are the Table-1 columns plus the importance-weight summary used
// by the experiment harness.
type Stats struct {
	Name    string
	Dim     int
	N       int
	Density float64 // "∇fi-Spa.": nnz / (n·d)
	Psi     float64 // Eq. 15, normalized form (ΣL)²/(N·ΣL²)
	Rho     float64 // Eq. 20, the population variance of L
	MeanL   float64
	MinL    float64
	MaxL    float64
	AvgNNZ  float64 // average non-zeros per row
}

// ComputeStats derives Table-1 statistics from a dataset and its
// per-sample importance weights L.
func ComputeStats(d *Dataset, l []float64) Stats {
	s := Stats{
		Name:    d.Name,
		Dim:     d.Dim(),
		N:       d.N(),
		Density: d.X.Density(),
	}
	if d.N() > 0 {
		s.AvgNNZ = float64(d.X.NNZ()) / float64(d.N())
	}
	if len(l) > 0 {
		n := float64(len(l))
		s.MinL, s.MaxL = math.Inf(1), math.Inf(-1)
		sum, sumSq := 0.0, 0.0
		for _, v := range l {
			sum += v
			sumSq += v * v
			s.MinL = math.Min(s.MinL, v)
			s.MaxL = math.Max(s.MaxL, v)
		}
		s.MeanL = sum / n
		if sumSq > 0 {
			s.Psi = sum * sum / (n * sumSq)
		}
		for _, v := range l {
			s.Rho += (v - s.MeanL) * (v - s.MeanL)
		}
		s.Rho /= n
	}
	return s
}
