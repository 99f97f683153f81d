package core

import (
	"context"
	"testing"

	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/objective"
)

func TestWarmStart(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(73))
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-4}

	// Phase 1: train 4 epochs.
	first, err := Train(context.Background(), ds, obj, Config{
		Algo: ISASGD, Epochs: 4, Step: 0.5, Threads: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 2: resume from phase-1 weights.
	second, err := Train(context.Background(), ds, obj, Config{
		Algo: ISASGD, Epochs: 4, Step: 0.5, Threads: 4, Seed: 6,
		InitWeights: first.Weights,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The resumed run's INITIAL point must equal phase 1's final point.
	if got, want := second.Curve[0].Obj, first.Curve.Final().Obj; got != want {
		t.Fatalf("warm start initial obj %g != previous final %g", got, want)
	}
	// And it should improve on it.
	if second.Curve.Final().Obj >= second.Curve[0].Obj {
		t.Fatal("resumed training did not improve")
	}
}

func TestWarmStartDimValidation(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(74))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Train(context.Background(), ds, objective.LogisticL1{Eta: 1e-4}, Config{
		Algo: SGD, Epochs: 1, Step: 0.1, InitWeights: make([]float64, ds.Dim()+1),
	})
	if err == nil {
		t.Fatal("wrong-length InitWeights accepted")
	}
}
