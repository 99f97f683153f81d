package objective

import (
	"math"
	"strings"
	"testing"

	"github.com/isasgd/isasgd/internal/sparse"
	"github.com/isasgd/isasgd/internal/xrand"
)

var objectives = []Objective{
	LogisticL1{Eta: 1e-4},
	LogisticL1{Eta: 0},
	SquaredHingeL2{Lambda: 0.1},
	SquaredHingeL2{Lambda: 1e-3},
	LeastSquaresL2{Eta: 1e-2},
}

// TestDerivMatchesNumericalGradient checks ∂ℓ/∂z against central finite
// differences for every objective over a grid of scores and both labels.
func TestDerivMatchesNumericalGradient(t *testing.T) {
	const h = 1e-6
	for _, obj := range objectives {
		for _, y := range []float64{-1, 1} {
			for z := -4.0; z <= 4.0; z += 0.37 {
				if _, isHinge := obj.(SquaredHingeL2); isHinge {
					// Squared hinge has a kink region boundary at y·z = 1;
					// skip the non-differentiable neighborhood.
					if math.Abs(1-y*z) < 10*h {
						continue
					}
				}
				num := (obj.Loss(z+h, y) - obj.Loss(z-h, y)) / (2 * h)
				got := obj.Deriv(z, y)
				if math.Abs(num-got) > 1e-5*(1+math.Abs(num)) {
					t.Errorf("%s: Deriv(%g, %g) = %g, numeric %g", obj.Name(), z, y, got, num)
				}
			}
		}
	}
}

func TestLogisticLossProperties(t *testing.T) {
	o := LogisticL1{Eta: 0}
	// ℓ(0, y) = log 2.
	if got := o.Loss(0, 1); math.Abs(got-math.Ln2) > 1e-12 {
		t.Fatalf("Loss(0,1) = %g, want ln2", got)
	}
	// Symmetric: ℓ(z, +1) == ℓ(−z, −1).
	for z := -5.0; z < 5; z += 0.7 {
		if d := math.Abs(o.Loss(z, 1) - o.Loss(-z, -1)); d > 1e-12 {
			t.Fatalf("asymmetry at z=%g: %g", z, d)
		}
	}
	// Stable at extreme margins: no overflow, loss ≈ margin for very
	// negative margins, ≈ 0 for very positive ones.
	if got := o.Loss(1000, 1); got != 0 {
		t.Fatalf("Loss(1000,1) = %g, want 0 (underflow to zero is exact)", got)
	}
	if got := o.Loss(-1000, 1); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("Loss(-1000,1) = %g, want ~1000", got)
	}
	if got := o.Deriv(-1000, 1); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Deriv(-1000,1) = %g, want -1", got)
	}
	if got := o.Deriv(1000, 1); got != 0 {
		t.Fatalf("Deriv(1000,1) = %g, want 0", got)
	}
}

func TestSquaredHingeZeroRegion(t *testing.T) {
	o := SquaredHingeL2{Lambda: 0.5}
	// Correctly classified with margin: zero loss and derivative.
	if o.Loss(2, 1) != 0 || o.Deriv(2, 1) != 0 {
		t.Fatal("margin > 1 should have zero loss and deriv")
	}
	if o.Loss(-2, -1) != 0 || o.Deriv(-2, -1) != 0 {
		t.Fatal("margin > 1 (negative label) should have zero loss and deriv")
	}
	// At z=0 the loss is 1 for either label.
	if o.Loss(0, 1) != 1 || o.Loss(0, -1) != 1 {
		t.Fatal("Loss(0, y) should be 1")
	}
}

func TestLeastSquares(t *testing.T) {
	o := LeastSquaresL2{Eta: 0}
	if o.Loss(3, 1) != 2 {
		t.Fatalf("Loss(3,1) = %g, want 2", o.Loss(3, 1))
	}
	if o.Deriv(3, 1) != 2 {
		t.Fatalf("Deriv(3,1) = %g, want 2", o.Deriv(3, 1))
	}
	if o.Lipschitz(4) != 4 {
		t.Fatalf("Lipschitz(4) = %g, want 4", o.Lipschitz(4))
	}
}

func TestPredict(t *testing.T) {
	for _, obj := range objectives {
		if obj.Predict(2.5) != 1 || obj.Predict(-0.1) != -1 || obj.Predict(0) != 1 {
			t.Errorf("%s: Predict sign convention broken", obj.Name())
		}
	}
}

func TestLipschitzMonotone(t *testing.T) {
	// Importance weights must increase with the sample norm.
	for _, obj := range objectives {
		prev := -1.0
		for _, nsq := range []float64{0, 0.5, 1, 2, 10, 1e4} {
			l := obj.Lipschitz(nsq)
			if l < prev {
				t.Errorf("%s: Lipschitz not monotone at %g", obj.Name(), nsq)
			}
			if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
				t.Errorf("%s: invalid Lipschitz %g", obj.Name(), l)
			}
			prev = l
		}
	}
}

func TestHingeLipschitzEq16(t *testing.T) {
	// Check the closed form 2(1+‖x‖/√λ)‖x‖ + √λ.
	lambda := 0.25
	o := SquaredHingeL2{Lambda: lambda}
	norm := 3.0
	want := 2*(1+norm/0.5)*norm + 0.5
	if got := o.Lipschitz(norm * norm); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Lipschitz = %g, want %g", got, want)
	}
	// λ=0 must not divide by zero.
	o0 := SquaredHingeL2{Lambda: 0}
	if got := o0.Lipschitz(4); math.Abs(got-2*(1+2)*2) > 1e-12 {
		t.Fatalf("λ=0 Lipschitz = %g", got)
	}
}

func TestRegularizers(t *testing.T) {
	w := []float64{1, -2, 0, 3}

	l1 := L1{Eta: 0.5}
	if got := l1.Penalty(w); math.Abs(got-3) > 1e-12 {
		t.Fatalf("L1 penalty = %g, want 3", got)
	}
	if l1.DerivAt(2) != 0.5 || l1.DerivAt(-2) != -0.5 || l1.DerivAt(0) != 0 {
		t.Fatal("L1 DerivAt sign convention broken")
	}

	l2 := L2{Eta: 2}
	if got := l2.Penalty(w); math.Abs(got-14) > 1e-12 { // ½·2·(1+4+0+9)
		t.Fatalf("L2 penalty = %g, want 14", got)
	}
	if l2.DerivAt(3) != 6 {
		t.Fatalf("L2 DerivAt(3) = %g, want 6", l2.DerivAt(3))
	}

	n := None{}
	if n.Penalty(w) != 0 || n.DerivAt(5) != 0 || n.Strength() != 0 {
		t.Fatal("None regularizer must be all zeros")
	}
}

func TestRegPenaltyMatchesDerivNumerically(t *testing.T) {
	// ∂Penalty/∂w_j == DerivAt(w_j) away from kinks.
	regs := []Regularizer{L1{Eta: 0.3}, L2{Eta: 0.7}, None{}}
	r := xrand.New(5)
	const h = 1e-6
	for _, reg := range regs {
		for trial := 0; trial < 50; trial++ {
			w := make([]float64, 6)
			for i := range w {
				w[i] = r.NormFloat64()
				if math.Abs(w[i]) < 0.01 {
					w[i] = 0.5 // stay away from the L1 kink
				}
			}
			j := r.Intn(len(w))
			wp := append([]float64(nil), w...)
			wm := append([]float64(nil), w...)
			wp[j] += h
			wm[j] -= h
			num := (reg.Penalty(wp) - reg.Penalty(wm)) / (2 * h)
			if got := reg.DerivAt(w[j]); math.Abs(got-num) > 1e-5 {
				t.Fatalf("%s: DerivAt(%g) = %g, numeric %g", reg.Name(), w[j], got, num)
			}
		}
	}
}

func TestWeights(t *testing.T) {
	b := sparse.NewCSRBuilder(4)
	b.Append(sparse.Vector{Idx: []int32{0}, Val: []float64{2}})       // ‖x‖²=4
	b.Append(sparse.Vector{Idx: []int32{1, 2}, Val: []float64{1, 1}}) // ‖x‖²=2
	x := b.Build()
	l := Weights(x, LeastSquaresL2{Eta: 1})
	if len(l) != 2 || l[0] != 5 || l[1] != 3 {
		t.Fatalf("Weights = %v, want [5 3]", l)
	}
}

func TestNames(t *testing.T) {
	if !strings.Contains((LogisticL1{Eta: 0.5}).Name(), "logistic") {
		t.Fatal("LogisticL1 name")
	}
	if !strings.Contains((SquaredHingeL2{Lambda: 1}).Name(), "sqhinge") {
		t.Fatal("SquaredHingeL2 name")
	}
	if !strings.Contains((LeastSquaresL2{Eta: 1}).Name(), "lsq") {
		t.Fatal("LeastSquaresL2 name")
	}
	if (LogisticL1{Eta: 1}).Reg().Name() != "l1" {
		t.Fatal("LogisticL1 reg")
	}
	if (SquaredHingeL2{Lambda: 1}).Reg().Name() != "l2" {
		t.Fatal("SquaredHingeL2 reg")
	}
}

func TestFullGradientDescentReducesObjective(t *testing.T) {
	// Integration sanity: a few steps of full-batch gradient descent on a
	// tiny separable problem must reduce F(w) for every objective.
	b := sparse.NewCSRBuilder(3)
	b.Append(sparse.Vector{Idx: []int32{0, 1}, Val: []float64{1, 0.5}})
	b.Append(sparse.Vector{Idx: []int32{0, 2}, Val: []float64{-1, 0.2}})
	b.Append(sparse.Vector{Idx: []int32{1, 2}, Val: []float64{0.7, -0.4}})
	x := b.Build()
	y := []float64{1, -1, 1}

	objF := func(obj Objective, w []float64) float64 {
		s := 0.0
		for i := 0; i < x.Rows(); i++ {
			s += obj.Loss(x.Row(i).Dot(w), y[i])
		}
		return s/float64(x.Rows()) + obj.Reg().Penalty(w)
	}

	for _, obj := range objectives {
		w := make([]float64, 3)
		before := objF(obj, w)
		for step := 0; step < 20; step++ {
			grad := make([]float64, 3)
			for i := 0; i < x.Rows(); i++ {
				row := x.Row(i)
				row.AddTo(grad, obj.Deriv(row.Dot(w), y[i])/float64(x.Rows()))
			}
			for j := range w {
				grad[j] += obj.Reg().DerivAt(w[j])
				w[j] -= 0.1 * grad[j]
			}
		}
		after := objF(obj, w)
		if after >= before {
			t.Errorf("%s: objective did not decrease (%g -> %g)", obj.Name(), before, after)
		}
	}
}

// TestParse pins the one objective-name lookup.
func TestParse(t *testing.T) {
	for name, want := range map[string]Objective{
		"logistic-l1": LogisticL1{Eta: 0.5},
		"sqhinge-l2":  SquaredHingeL2{Lambda: 0.5},
		"lsq-l2":      LeastSquaresL2{Eta: 0.5},
	} {
		if got, err := Parse(name, 0.5); err != nil || got != want {
			t.Errorf("Parse(%q) = %#v, %v; want %#v", name, got, err, want)
		}
	}
	if _, err := Parse("bogus", 1); err == nil {
		t.Error("Parse accepted an unknown objective")
	}
}
