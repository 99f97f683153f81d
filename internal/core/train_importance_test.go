package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
)

// TestGradNormWeights checks that Importance reaches the engine: the
// first epoch of gradient-norm importance samples from the static bound
// and ends on the bound run's weights, and the later epochs, which
// sample from the gradient norms the updates recorded, do not.
func TestGradNormWeights(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(61))
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-4}
	run := func(importance string, epochs int) []float64 {
		res, err := Train(context.Background(), ds, obj, Config{
			Algo: ISSGD, Epochs: epochs, Step: 0.5, Seed: 4, Importance: importance,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Weights
	}
	if !slices.Equal(run("bound", 1), run("grad", 1)) {
		t.Fatal("the first grad epoch left the static bound")
	}
	if slices.Equal(run("bound", 3), run("grad", 3)) {
		t.Fatal("grad epochs after the first still sample the static bound")
	}
}

// TestGradNormWeightsFloor warm-starts gradient-norm importance where
// most gradients are exactly zero — squared hinge past its margin — so
// most rows record |ℓ'| = 0. The uniform half of the mix keeps them
// drawn, and the run stays finite and keeps its objective.
func TestGradNormWeightsFloor(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(62))
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.SquaredHingeL2{Lambda: 1e-3}
	warm, err := Train(context.Background(), ds, obj, Config{
		Algo: SGD, Epochs: 10, Step: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(context.Background(), ds, obj, Config{
		Algo: ISASGD, Epochs: 4, Step: 0.1, Threads: 2, Seed: 1,
		Importance: "grad", InitWeights: warm.Weights,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, was := res.Curve.Final().Obj, res.Curve[0].Obj; math.IsNaN(got) || got > was*1.1 {
		t.Fatalf("grad importance from a warm start moved the objective %g -> %g", was, got)
	}
}

func TestAdaptiveISConverges(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(63))
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-4}
	for _, algo := range []Algo{ISSGD, ISASGD} {
		res, err := Train(context.Background(), ds, obj, Config{
			Algo: algo, Epochs: 8, Step: 0.5, Threads: 4, Seed: 2,
			Importance: "grad",
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Curve.Final().Obj >= res.Curve[0].Obj*0.7 {
			t.Fatalf("%v with grad importance failed to optimize: %g -> %g",
				algo, res.Curve[0].Obj, res.Curve.Final().Obj)
		}
	}
}

// TestPartialBiasBoundsStepScale: partially biased IS-SGD, which the
// ablations build through ISOptions, still optimizes.
func TestPartialBiasBoundsStepScale(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(65))
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-4}
	e, err := NewISASGDOpts(ds, obj, model.NewRacy(ds.Dim()), 1, ISOptions{
		Mode: balance.ForceShuffle, Seed: 3, PartialBias: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := objValue(ds, obj, e.Snapshot(nil))
	for ep := 0; ep < 5; ep++ {
		e.RunEpoch(0.5)
	}
	if last := objValue(ds, obj, e.Snapshot(nil)); last >= first*0.8 {
		t.Fatalf("partially biased IS failed to optimize: %g -> %g", first, last)
	}
}
