package core

import (
	"context"
	"math"
	"testing"

	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/sparse"
	"github.com/isasgd/isasgd/internal/xrand"
)

// strictSVRGDirection is the strict SVRG direction the paper's Algorithm
// 1 writes, kept here as the executable reference for the sparse form:
//
//	(1/n)·Σ_i (ℓ'(w·x_i) − ℓ'(s·x_i))·x_i + µ,  µ = (1/n)·Σ_i ℓ'(s·x_i)·x_i
//
// with µ dense over all d coordinates — the O(d)-per-update term the
// sparse form replaces by µ_j·D_j on each row's support. It also returns
// µ and, per coordinate, the sum of the absolute values of the terms
// added into it: the scale the sums' rounding is relative to.
func strictSVRGDirection(ds *dataset.Dataset, obj objective.Objective, w, s []float64) (dir, mu, scale []float64) {
	d, n := ds.Dim(), float64(ds.N())
	dir, mu, scale = make([]float64, d), make([]float64, d), make([]float64, d)
	for i := 0; i < ds.N(); i++ {
		row := ds.X.Row(i)
		gw, gs := obj.Deriv(row.Dot(w), ds.Y[i]), obj.Deriv(row.Dot(s), ds.Y[i])
		for k, j := range row.Idx {
			dir[j] += (gw - gs) * row.Val[k] / n
			mu[j] += gs * row.Val[k] / n
			scale[j] += (math.Abs(gw) + 2*math.Abs(gs)) * math.Abs(row.Val[k]) / n
		}
	}
	for j := range dir {
		dir[j] += mu[j]
	}
	return dir, mu, scale
}

// TestSVRGSparseDirectionIsStrict is the exactness check of the sparse
// form: with w and s fixed and η = 0, the loop's SVRG direction for row
// i is read off one update at step 1 from w, and its mean over all n
// rows equals the strict direction on every coordinate to 1e-12 of the
// coordinate's scale. D_j = n/n_j is what makes it so: coordinate j is
// shifted by µ_j·D_j in exactly the n_j rows that hold it.
func TestSVRGSparseDirectionIsStrict(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(81))
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 0}
	rng := xrand.New(5)
	w, s := make([]float64, ds.Dim()), make([]float64, ds.Dim())
	for j := range w {
		w[j], s[j] = 0.3*rng.NormFloat64(), 0.3*rng.NormFloat64()
	}
	m := model.NewRacy(ds.Dim())
	e, err := NewSVRG(ds, obj, m, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Load(s)
	e.svrgEpoch(false)

	mean := make([]float64, ds.Dim())
	for i := 0; i < ds.N(); i++ {
		m.Load(w)
		e.loop.Run(0, &e.x, []int{i}, []int32{0}, nil, 1, nil)
		for _, j := range ds.X.Row(i).Idx {
			mean[j] += (w[j] - m.Get(j)) / float64(ds.N())
		}
	}
	strict, mu, scale := strictSVRGDirection(ds, obj, w, s)
	for j := range strict {
		if math.Abs(mean[j]-strict[j]) > 1e-12*(scale[j]+math.Abs(mu[j])) {
			t.Fatalf("coordinate %d: sparse mean %.17g, strict %.17g (scale %g)", j, mean[j], strict[j], scale[j])
		}
	}
}

// TestSVRGDelayedZeroIsRunEpoch pins SVRG on the referee: at τ = 0 a
// 1-worker engine's delayed epochs are bitwise its RunEpoch epochs, in
// both precisions.
func TestSVRGDelayedZeroIsRunEpoch(t *testing.T) {
	ds, obj := smallProblem(t)
	for _, kind := range []model.Kind{model.KindRacy, model.KindRacy32} {
		var w [2][]float64
		for k := range w {
			e, err := NewSVRG(ds, obj, model.New(kind, ds.Dim()), 1, 7)
			if err != nil {
				t.Fatal(err)
			}
			for ep := 0; ep < 3; ep++ {
				if k == 0 {
					e.RunEpoch(0.3)
				} else if n := e.RunEpochDelayed(0.3, 0); n != int64(ds.N()) {
					t.Fatalf("%v: epoch ran %d updates, want %d", kind, n, ds.N())
				}
			}
			w[k] = e.Snapshot(nil)
		}
		sameBits(t, w[0], w[1])
	}
}

// TestSVRGEpochAllocatesNothing: once its buffers exist, an SVRG epoch —
// snapshot, anchor pass, shift and updates — allocates nothing, on one
// worker and on the referee, in both precisions.
func TestSVRGEpochAllocatesNothing(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	ds, obj := smallProblem(t)
	for _, kind := range []model.Kind{model.KindRacy, model.KindRacy32} {
		e, err := NewSVRG(ds, obj, model.New(kind, ds.Dim()), 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		e.RunEpoch(0.1)
		if a := testing.AllocsPerRun(3, func() { e.RunEpoch(0.1) }); a != 0 {
			t.Fatalf("%v: SVRG epoch allocates %.2f/op, want 0", kind, a)
		}
		d, err := NewSVRG(ds, obj, model.New(kind, ds.Dim()), 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		d.RunEpochDelayed(0.1, 1)
		if a := testing.AllocsPerRun(3, func() { d.RunEpochDelayed(0.1, 1) }); a != 0 {
			t.Fatalf("%v: delayed SVRG epoch allocates %.2f/op, want 0", kind, a)
		}
	}
}

// TestSVRGConcurrent runs SVRG-ASGD on two workers racing on CAS models
// of both widths. The anchor pass runs on the workers' goroutines, each
// writing only its own shard's anchors and its own accumulator, and its
// shift is bitwise the one-goroutine pass's. Under -race it proves the
// pass and the updates share nothing but the model.
func TestSVRGConcurrent(t *testing.T) {
	ds, obj := smallProblem(t)
	for _, kind := range []model.Kind{model.KindAtomic, model.KindAtomic32} {
		e, err := NewSVRG(ds, obj, model.New(kind, ds.Dim()), 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 3; epoch++ {
			if n := e.RunEpoch(0.5); n != e.ItersPerEpoch() {
				t.Fatalf("%v: epoch applied %d of %d updates", kind, n, e.ItersPerEpoch())
			}
		}
		e.svrgEpoch(true)
		parallel := append([]float64(nil), e.loop.shift...)
		e.svrgEpoch(false)
		sameBits(t, parallel, e.loop.shift)
		if j := model.FirstNonFinite(e.Snapshot(nil)); j >= 0 {
			t.Fatalf("%v: non-finite weight at %d", kind, j)
		}
	}
}

// TestSVRGRejectsDelayCompensation: the shifted write-back has no
// delay-compensated form, so an SVRG engine refuses DCLambda.
func TestSVRGRejectsDelayCompensation(t *testing.T) {
	ds, obj := smallProblem(t)
	e, err := NewSVRG(ds, obj, model.NewRacy(ds.Dim()), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetDC(0.1); err == nil {
		t.Fatal("SVRG accepted delay compensation")
	}
}

// TestSVRGPrecisionF32 trains both SVRG algorithms at f32 through Train:
// the state is stored at half width and the objective still falls.
func TestSVRGPrecisionF32(t *testing.T) {
	ds, obj := testProblem(t)
	for _, algo := range []Algo{SVRGSGD, SVRGASGD} {
		res, err := Train(context.Background(), ds, obj, Config{
			Algo: algo, Epochs: 4, Step: 0.5, Threads: 2, Seed: 3, Precision: model.PrecisionF32,
		})
		if err != nil {
			t.Fatal(err)
		}
		for j, w := range res.Weights {
			if w != float64(float32(w)) {
				t.Fatalf("%v: weight %d = %g not float32-representable", algo, j, w)
			}
		}
		if res.Curve.Final().Obj >= res.Curve[0].Obj*0.8 {
			t.Fatalf("%v at f32 barely moved: %g -> %g", algo, res.Curve[0].Obj, res.Curve.Final().Obj)
		}
	}
}

func TestSVRGVarianceReductionAtSnapshot(t *testing.T) {
	// At w == s the difference term vanishes and each update is µ_j·D_j
	// on its row's support, whose mean over the epoch's draws is µ: one
	// SVRG epoch from a fresh model behaves like averaged-gradient
	// descent and strictly reduces the objective.
	ds, err := dataset.Synthesize(dataset.Small(41))
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-4}
	res, err := Train(context.Background(), ds, obj, Config{
		Algo: SVRGSGD, Epochs: 3, Step: 0.2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Curve
	for i := 1; i < len(c); i++ {
		if c[i].Obj >= c[i-1].Obj {
			t.Fatalf("SVRG objective not monotone: %g -> %g at epoch %d",
				c[i-1].Obj, c[i].Obj, c[i].Epoch)
		}
	}
}

func TestSVRGIterativeBeatsSGDPerEpoch(t *testing.T) {
	// The iterative-convergence claim of Figure 3a, in the regime where
	// it holds: with noisy labels (large residual variance σ²) and a
	// large constant step, plain SGD stalls at its gradient-noise floor
	// while variance-reduced SVRG keeps descending to a lower objective.
	cfg := dataset.Small(43)
	cfg.LabelNoise = 0.25
	ds, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-4}
	const step, epochs = 8.0, 12
	svrgRes, err := Train(context.Background(), ds, obj, Config{
		Algo: SVRGSGD, Epochs: epochs, Step: step, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	sgdRes, err := Train(context.Background(), ds, obj, Config{
		Algo: SGD, Epochs: epochs, Step: step, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if svrgRes.Curve.Final().Obj >= sgdRes.Curve.Final().Obj {
		t.Fatalf("SVRG final obj %g not better than SGD %g",
			svrgRes.Curve.Final().Obj, sgdRes.Curve.Final().Obj)
	}
}

func TestSVRGAsyncMatchesSequentialShape(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(45))
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-4}
	res, err := Train(context.Background(), ds, obj, Config{
		Algo: SVRGASGD, Epochs: 4, Step: 0.5, Threads: 4, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve.Final().Obj >= res.Curve[0].Obj*0.7 {
		t.Fatalf("SVRG-ASGD failed to optimize: %g -> %g",
			res.Curve[0].Obj, res.Curve.Final().Obj)
	}
}

func TestSVRGDimMismatch(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(47))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSVRG(ds, objective.LogisticL1{}, model.NewRacy(ds.Dim()+3), 1, 1); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestSVRGThreadClamp(t *testing.T) {
	rows := []sparse.Vector{
		{Idx: []int32{0}, Val: []float64{1}},
		{Idx: []int32{1}, Val: []float64{1}},
	}
	ds, err := dataset.FromRows("two", 2, rows, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewSVRG(ds, objective.LogisticL1{}, model.NewAtomic(2), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.shards) != 2 || len(e.acc) != 2 {
		t.Fatalf("shards = %d, accumulators = %d, want 2", len(e.shards), len(e.acc))
	}
}
