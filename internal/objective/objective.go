// Package objective defines the empirical-risk objectives of Eq. 1–2,
//
//	F(w) = (1/n) Σ_i f_i(w),   f_i(w) = φ_i(w) + η·r(w),
//
// restricted to generalized linear models: φ_i(w) = ℓ(w·x_i, y_i). The
// restriction is what makes the paper's sparsity argument work — the
// stochastic gradient ∇φ_i(w) = ℓ'(w·x_i, y_i)·x_i is a scalar multiple
// of the sample and therefore exactly as sparse as the sample.
//
// Three objectives are provided:
//
//   - LogisticL1: L1-regularized cross-entropy loss, the paper's
//     evaluation objective ("the most widely used objective function in
//     classification problems", Section 4);
//   - SquaredHingeL2: the L2-regularized squared-hinge SVM of Section 2.2
//     with the gradient-norm bound of Eq. 16 as the importance weight;
//   - LeastSquaresL2: ridge regression, whose importance sampling scheme
//     recovers the randomized Kaczmarz weighting ‖x_i‖² of Strohmer &
//     Vershynin (2009).
//
// Per-sample importance weights L_i (Eq. 12) are derived from sample
// norms via Lipschitz; Weights computes them for a whole dataset.
//
// The sparse update kernels (internal/kernel, used by core, stream and
// the cluster worker) fuse the regularizer derivative η·r'(w_j) into
// the gradient write on the sample's support only, as Hogwild does. In
// expectation they therefore minimize mean loss + η·Σ_j π_j·|w_j| (π_j
// the share of rows touching feature j), not the F(w) that Penalty
// reports; metrics.Eval keeps the two terms apart (Loss, Reg).
package objective

import (
	"fmt"
	"math"

	"github.com/isasgd/isasgd/internal/sparse"
)

// Objective is a generalized linear objective ℓ(z, y) with z = w·x.
type Objective interface {
	// Name returns a short identifier, e.g. "logistic-l1(0.0001)".
	Name() string
	// Loss returns ℓ(z, y).
	Loss(z, y float64) float64
	// Deriv returns ∂ℓ/∂z at (z, y); the sample gradient is Deriv·x.
	Deriv(z, y float64) float64
	// Lipschitz returns the importance weight L_i of a sample with the
	// given squared norm: an upper bound on the Lipschitz constant of
	// ∇f_i (or, for the hinge objective, the Eq. 16 gradient-norm bound).
	Lipschitz(normSq float64) float64
	// Predict maps a score z to a predicted label.
	Predict(z float64) float64
	// Reg returns the regularizer component of f_i.
	Reg() Regularizer
}

// Regularizer is the η·r(w) component. Solvers apply it sparsely: only
// the coordinates on a sample's support are regularized at each step,
// preserving update sparsity (Section 1.2's requirement). DerivAt returns
// η·∂r/∂w_j given the coordinate value, so a solver folds it into the
// same pass that applies the loss gradient.
type Regularizer interface {
	// Name returns a short identifier, e.g. "l1".
	Name() string
	// Strength returns η.
	Strength() float64
	// Penalty returns η·r(w) for a dense weight vector.
	Penalty(w []float64) float64
	// DerivAt returns η·∂r/∂w_j evaluated at coordinate value wj.
	DerivAt(wj float64) float64
}

// None is the zero regularizer.
type None struct{}

// Name returns "none".
func (None) Name() string { return "none" }

// Strength returns 0.
func (None) Strength() float64 { return 0 }

// Penalty returns 0.
func (None) Penalty([]float64) float64 { return 0 }

// DerivAt returns 0.
func (None) DerivAt(float64) float64 { return 0 }

// L1 is the lasso penalty η·‖w‖₁ with subgradient η·sign(w_j).
type L1 struct{ Eta float64 }

// Name returns "l1".
func (L1) Name() string { return "l1" }

// Strength returns η.
func (r L1) Strength() float64 { return r.Eta }

// Penalty returns η·‖w‖₁.
func (r L1) Penalty(w []float64) float64 {
	s := 0.0
	for _, v := range w {
		s += math.Abs(v)
	}
	return r.Eta * s
}

// DerivAt returns η·sign(wj) (0 at 0, the minimum-norm subgradient).
func (r L1) DerivAt(wj float64) float64 {
	switch {
	case wj > 0:
		return r.Eta
	case wj < 0:
		return -r.Eta
	default:
		return 0
	}
}

// L2 is the ridge penalty (η/2)·‖w‖₂² with gradient η·w_j.
type L2 struct{ Eta float64 }

// Name returns "l2".
func (L2) Name() string { return "l2" }

// Strength returns η.
func (r L2) Strength() float64 { return r.Eta }

// Penalty returns (η/2)·‖w‖₂².
func (r L2) Penalty(w []float64) float64 {
	return 0.5 * r.Eta * sparse.DenseNormSq(w)
}

// DerivAt returns η·wj.
func (r L2) DerivAt(wj float64) float64 { return r.Eta * wj }

// LogisticL1 is the paper's evaluation objective: binary cross-entropy
// ℓ(z, y) = log(1 + exp(−y·z)) with labels y ∈ {−1, +1} and an L1
// penalty of strength Eta.
type LogisticL1 struct {
	Eta float64
}

// Name identifies the objective and its regularization strength.
func (o LogisticL1) Name() string { return fmt.Sprintf("logistic-l1(%g)", o.Eta) }

// Loss returns log(1 + exp(−y·z)), computed in the numerically stable
// branch form.
func (o LogisticL1) Loss(z, y float64) float64 {
	m := y * z
	if m > 0 {
		return math.Log1p(math.Exp(-m))
	}
	return -m + math.Log1p(math.Exp(m))
}

// Deriv returns ∂ℓ/∂z = −y·σ(−y·z) where σ is the logistic function.
func (o LogisticL1) Deriv(z, y float64) float64 {
	m := y * z
	// −y / (1 + e^m), stable for both signs of m.
	if m > 0 {
		e := math.Exp(-m)
		return -y * e / (1 + e)
	}
	return -y / (1 + math.Exp(m))
}

// Lipschitz returns L_i = ‖x_i‖²/4 + η: the logistic loss is (1/4)-smooth
// in z, so ∇φ_i is ‖x_i‖²/4-Lipschitz; the L1 subgradient contributes at
// most η to the gradient-norm variation.
func (o LogisticL1) Lipschitz(normSq float64) float64 {
	return 0.25*normSq + o.Eta
}

// Predict returns sign(z), mapping 0 to +1.
func (o LogisticL1) Predict(z float64) float64 { return signLabel(z) }

// Reg returns the L1 penalty.
func (o LogisticL1) Reg() Regularizer { return L1{Eta: o.Eta} }

// SquaredHingeL2 is the L2-regularized squared-hinge SVM of Section 2.2:
// f_i(w) = max(0, 1 − y·w·x_i)² + (Lambda/2)·‖w‖².
type SquaredHingeL2 struct {
	Lambda float64
}

// Name identifies the objective and λ.
func (o SquaredHingeL2) Name() string { return fmt.Sprintf("sqhinge-l2(%g)", o.Lambda) }

// Loss returns max(0, 1 − y·z)².
func (o SquaredHingeL2) Loss(z, y float64) float64 {
	h := 1 - y*z
	if h <= 0 {
		return 0
	}
	return h * h
}

// Deriv returns −2·y·max(0, 1 − y·z).
func (o SquaredHingeL2) Deriv(z, y float64) float64 {
	h := 1 - y*z
	if h <= 0 {
		return 0
	}
	return -2 * y * h
}

// Lipschitz returns the Eq. 16 bound
// ‖∇f_i(w)‖ ≤ 2(1 + ‖x_i‖/√λ)·‖x_i‖ + √λ, the importance weight the
// paper derives for this objective.
func (o SquaredHingeL2) Lipschitz(normSq float64) float64 {
	norm := math.Sqrt(normSq)
	sqrtL := math.Sqrt(o.Lambda)
	if sqrtL == 0 {
		return 2 * (1 + norm) * norm // degenerate λ=0: drop the λ terms
	}
	return 2*(1+norm/sqrtL)*norm + sqrtL
}

// Predict returns sign(z), mapping 0 to +1.
func (o SquaredHingeL2) Predict(z float64) float64 { return signLabel(z) }

// Reg returns the L2 penalty with η = Lambda.
func (o SquaredHingeL2) Reg() Regularizer { return L2{Eta: o.Lambda} }

// LeastSquaresL2 is ridge regression: f_i(w) = ½(w·x_i − y)² +
// (Eta/2)·‖w‖². With Eta = 0 and exact row sampling probabilities
// ‖x_i‖²/‖X‖², IS-SGD on this objective is the randomized Kaczmarz
// method.
type LeastSquaresL2 struct {
	Eta float64
}

// Name identifies the objective and η.
func (o LeastSquaresL2) Name() string { return fmt.Sprintf("lsq-l2(%g)", o.Eta) }

// Loss returns ½(z − y)².
func (o LeastSquaresL2) Loss(z, y float64) float64 {
	d := z - y
	return 0.5 * d * d
}

// Deriv returns z − y.
func (o LeastSquaresL2) Deriv(z, y float64) float64 { return z - y }

// Lipschitz returns ‖x_i‖² + η.
func (o LeastSquaresL2) Lipschitz(normSq float64) float64 { return normSq + o.Eta }

// Predict returns sign(z) so the objective can be used for ±1
// classification benchmarks; regression callers read scores directly.
func (o LeastSquaresL2) Predict(z float64) float64 { return signLabel(z) }

// Reg returns the L2 penalty.
func (o LeastSquaresL2) Reg() Regularizer { return L2{Eta: o.Eta} }

func signLabel(z float64) float64 {
	if z < 0 {
		return -1
	}
	return 1
}

// Parse is the one objective-name lookup: it resolves a name
// (logistic-l1, sqhinge-l2 or lsq-l2) and the regularization strength η to an Objective.
func Parse(name string, eta float64) (Objective, error) {
	switch name {
	case "logistic-l1":
		return LogisticL1{Eta: eta}, nil
	case "sqhinge-l2":
		return SquaredHingeL2{Lambda: eta}, nil
	case "lsq-l2":
		return LeastSquaresL2{Eta: eta}, nil
	}
	return nil, fmt.Errorf("unknown objective %q (want logistic-l1, sqhinge-l2 or lsq-l2)", name)
}

// Weights returns the per-sample importance weights L_i (Eq. 12
// numerators) of every row of x.
func Weights(x *sparse.CSR, obj Objective) []float64 {
	l := make([]float64, x.Rows())
	for i := range l {
		l[i] = obj.Lipschitz(x.Row(i).NormSq())
	}
	return l
}
