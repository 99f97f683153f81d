package core

import (
	"math"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
)

// buildConstruction instantiates one of the four paper constructions
// with the given model and a fixed seed.
func buildConstruction(t *testing.T, name string, ds *dataset.Dataset,
	obj objective.Objective, m model.Params) *Engine {
	t.Helper()
	const seed = 99
	var (
		e   *Engine
		err error
	)
	switch name {
	case "sgd":
		e, err = NewSGD(ds, obj, m, seed)
	case "is-sgd":
		e, err = NewISSGD(ds, obj, m, seed, false)
	case "asgd":
		e, err = NewASGD(ds, obj, m, 3, seed)
	case "is-asgd":
		e, err = NewISASGD(ds, obj, m, 3, balance.ForceShuffle, seed, false)
	default:
		t.Fatalf("unknown construction %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestKernelEquivalenceAcrossConstructions proves the specialized
// kernels are bitwise-identical to the reference kernel end to end: for
// every construction (SGD / ASGD / IS-SGD / IS-ASGD) × both model kinds, two engines with identical seeds — one on the
// devirtualized kernel, one forced onto the interface reference — run
// epochs with workers serialized and must produce identical weight bit
// patterns. (Serial worker execution makes the multi-worker
// constructions deterministic; the kernels themselves are what differ.)
func TestKernelEquivalenceAcrossConstructions(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(23))
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []objective.Objective{
		objective.LogisticL1{Eta: 1e-4},     // → L1 kernels
		objective.LeastSquaresL2{Eta: 1e-3}, // → L2 kernels
	} {
		for _, construction := range []string{"sgd", "is-sgd", "asgd", "is-asgd"} {
			for _, kind := range []model.Kind{model.KindRacy, model.KindAtomic} {
				t.Run(construction+"/"+obj.Name()+"/"+kind.String(), func(t *testing.T) {
					spec := buildConstruction(t, construction, ds, obj, model.New(kind, ds.Dim()))
					ref := buildConstruction(t, construction, ds, obj, model.New(kind, ds.Dim()))
					ref.UseReferenceKernel()
					for epoch := 0; epoch < 3; epoch++ {
						spec.RunEpochSerial(0.3)
						ref.RunEpochSerial(0.3)
						ws := spec.Snapshot(nil)
						wr := ref.Snapshot(nil)
						for j := range ws {
							if math.Float64bits(ws[j]) != math.Float64bits(wr[j]) {
								t.Fatalf("epoch %d, coordinate %d: specialized %x (%g) != reference %x (%g)",
									epoch, j, math.Float64bits(ws[j]), ws[j], math.Float64bits(wr[j]), wr[j])
							}
						}
					}
				})
			}
		}
	}
}

// TestRunEpochZeroAlloc is the steady-state allocation guard: after the
// first epoch, RunEpoch must not allocate (per-epoch sequence
// regeneration and the gradient-norm reweigh reuse their buffers in
// place). Single worker: goroutine spawning in the multi-worker path
// allocates by design.
func TestRunEpochZeroAlloc(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	ds, err := dataset.Synthesize(dataset.Small(29))
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-4}
	t.Run("scalar", func(t *testing.T) {
		// IS-SGD exercises the full hot path: sequences, scales and
		// end-of-epoch in-place regeneration.
		e, err := NewISSGD(ds, obj, model.NewRacy(ds.Dim()), 41, false)
		if err != nil {
			t.Fatal(err)
		}
		e.RunEpoch(0.1) // warm up
		if n := testing.AllocsPerRun(5, func() { e.RunEpoch(0.1) }); n != 0 {
			t.Errorf("RunEpoch: %v steady-state allocs per epoch, want 0", n)
		}
	})
	t.Run("grad", func(t *testing.T) {
		// Gradient-norm importance also reweighs the shard every epoch:
		// the alias table and the step scales are rebuilt in place.
		e, err := NewISASGDOpts(ds, obj, model.NewRacy(ds.Dim()), 1, ISOptions{Seed: 41, Importance: "grad"})
		if err != nil {
			t.Fatal(err)
		}
		e.RunEpoch(0.1) // warm up
		if n := testing.AllocsPerRun(5, func() { e.RunEpoch(0.1) }); n != 0 {
			t.Errorf("RunEpoch: %v steady-state allocs per epoch, want 0", n)
		}
	})
	t.Run("uniform", func(t *testing.T) {
		// Plain SGD refills its uniform sequence in place every epoch.
		e, err := NewSGD(ds, obj, model.NewRacy(ds.Dim()), 41)
		if err != nil {
			t.Fatal(err)
		}
		e.RunEpoch(0.1) // warm up
		if n := testing.AllocsPerRun(5, func() { e.RunEpoch(0.1) }); n != 0 {
			t.Errorf("RunEpoch: %v steady-state allocs per epoch, want 0", n)
		}
	})
}
