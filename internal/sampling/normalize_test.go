package sampling

import (
	"errors"
	"math"
	"testing"
)

// TestNormalizeErrorPaths pins the rejection contract of the weight
// normalizer behind NewAlias and NewCDF: empty, negative, NaN, ±Inf,
// all-zero and sum-overflow inputs must all fail, and every failure must
// wrap ErrBadWeights — callers (core.buildSamplers, stream.ISState)
// rely on errors.Is to distinguish bad weights from programming errors.
func TestNormalizeErrorPaths(t *testing.T) {
	cases := map[string][]float64{
		"empty":        {},
		"nil":          nil,
		"negative":     {1, -0.5, 2},
		"nan":          {1, math.NaN(), 2},
		"+inf":         {1, math.Inf(1), 2},
		"-inf":         {1, math.Inf(-1), 2},
		"all zero":     {0, 0, 0},
		"single zero":  {0},
		"sum overflow": {math.MaxFloat64, math.MaxFloat64},
	}
	for name, w := range cases {
		t.Run(name, func(t *testing.T) {
			p, err := normalize(nil, w)
			if err == nil {
				t.Fatalf("normalize accepted %v -> %v", w, p)
			}
			if !errors.Is(err, ErrBadWeights) {
				t.Fatalf("error does not wrap ErrBadWeights: %v", err)
			}
			// The same contract must hold through both public constructors.
			if _, err := NewAlias(w); !errors.Is(err, ErrBadWeights) {
				t.Fatalf("NewAlias error does not wrap ErrBadWeights: %v", err)
			}
			if _, err := NewCDF(w); !errors.Is(err, ErrBadWeights) {
				t.Fatalf("NewCDF error does not wrap ErrBadWeights: %v", err)
			}
		})
	}
}

// TestNormalizeAcceptsEdgeCases: zero entries mixed with positive ones
// are legal (zero-probability samples), as are denormal-small and very
// large (but summable) weights.
func TestNormalizeAcceptsEdgeCases(t *testing.T) {
	cases := map[string][]float64{
		"mixed zeros":  {0, 1, 0, 3},
		"denormal":     {5e-324, 5e-324},
		"large":        {math.MaxFloat64 / 4, math.MaxFloat64 / 4},
		"single":       {42},
		"uniform ties": {1, 1, 1, 1},
	}
	for name, w := range cases {
		t.Run(name, func(t *testing.T) {
			p, err := normalize(nil, w)
			if err != nil {
				t.Fatalf("normalize rejected %v: %v", w, err)
			}
			sum := 0.0
			for i, pi := range p {
				if pi < 0 || math.IsNaN(pi) || math.IsInf(pi, 0) {
					t.Fatalf("p[%d] = %g", i, pi)
				}
				sum += pi
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("probabilities sum to %g", sum)
			}
			for i, wi := range w {
				if wi == 0 && p[i] != 0 {
					t.Fatalf("zero weight got probability %g", p[i])
				}
			}
		})
	}
}
