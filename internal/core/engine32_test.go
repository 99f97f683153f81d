package core

import (
	"math"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
)

// The float32 engine tests back the PR's end-to-end acceptance
// criterion: IS-ASGD on the f32 data path must optimize the same
// objective to the same region as f64, for every f32 model kind
// (racy32, atomic32), while staying allocation-free in steady state.
// f64-vs-f32 weight trajectories diverge by accumulated float32
// rounding, so the comparison is on the achieved objective value, not
// on weights.

var f32Kinds = []model.Kind{model.KindRacy32, model.KindAtomic32}

// TestF32MatchesF64Objective runs identically-seeded serial engines —
// one f64, one per f32 kind — and requires the f32 objectives to land
// within 1% (relative) of the f64 result after every epoch, on both
// kernel families.
func TestF32MatchesF64Objective(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(23))
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []objective.Objective{
		objective.LogisticL1{Eta: 1e-4},
		objective.LeastSquaresL2{Eta: 1e-3},
	} {
		for _, kind := range f32Kinds {
			t.Run(obj.Name()+"/"+kind.String(), func(t *testing.T) {
				ref := buildConstruction(t, "is-asgd", ds, obj, model.NewRacy(ds.Dim()))
				e32 := buildConstruction(t, "is-asgd", ds, obj, model.New(kind, ds.Dim()))
				before := objValue(ds, obj, ref.Snapshot(nil))
				for epoch := 0; epoch < 5; epoch++ {
					ref.RunEpochSerial(0.3)
					e32.RunEpochSerial(0.3)
					o64 := objValue(ds, obj, ref.Snapshot(nil))
					o32 := objValue(ds, obj, e32.Snapshot(nil))
					if math.Abs(o32-o64) > 1e-2*(1+math.Abs(o64)) {
						t.Fatalf("epoch %d: f32 objective %g vs f64 %g — outside 1%% band",
							epoch, o32, o64)
					}
				}
				// Progress check: the band above proves f32 tracks f64;
				// this proves the pair is actually descending, not
				// matching at a standstill.
				after := objValue(ds, obj, e32.Snapshot(nil))
				if after >= before {
					t.Fatalf("f32 failed to optimize: %g -> %g", before, after)
				}
			})
		}
	}
}

// TestRunEpochZeroAlloc32 is TestRunEpochZeroAlloc for the f32 hot
// loops: after warm-up, RunEpoch on a single-worker IS-SGD engine must
// not allocate — for every f32 model kind.
func TestRunEpochZeroAlloc32(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	ds, err := dataset.Synthesize(dataset.Small(29))
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-4}
	for _, kind := range f32Kinds {
		t.Run(kind.String()+"/scalar", func(t *testing.T) {
			e, err := NewISSGD(ds, obj, model.New(kind, ds.Dim()), 41, false)
			if err != nil {
				t.Fatal(err)
			}
			e.RunEpoch(0.1) // warm up
			if n := testing.AllocsPerRun(5, func() { e.RunEpoch(0.1) }); n != 0 {
				t.Errorf("%s RunEpoch: %v steady-state allocs per epoch, want 0", kind, n)
			}
		})
	}
}

// TestConcurrentEpochsAtomic32Model drives the f32 CAS write path with
// many workers. Under -race this verifies model.Atomic32's uint32-CAS
// discipline is the complete synchronization story for the f32 engine,
// mirroring TestConcurrentEpochsAtomicModel.
func TestConcurrentEpochsAtomic32Model(t *testing.T) {
	ds, obj := smallProblem(t)
	const threads = 8
	builders := map[string]func() (*Engine, error){
		"asgd": func() (*Engine, error) {
			return NewASGD(ds, obj, model.NewAtomic32(ds.Dim()), threads, 1)
		},
		"is-asgd": func() (*Engine, error) {
			return NewISASGD(ds, obj, model.NewAtomic32(ds.Dim()), threads, balance.ForceShuffle, 1, false)
		},
		"is-asgd-balanced": func() (*Engine, error) {
			return NewISASGD(ds, obj, model.NewAtomic32(ds.Dim()), threads, balance.ForceBalance, 1, true)
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			e, err := build()
			if err != nil {
				t.Fatal(err)
			}
			for epoch := 0; epoch < 3; epoch++ {
				if n := e.RunEpoch(0.1); n != e.ItersPerEpoch() {
					t.Fatalf("epoch applied %d of %d updates", n, e.ItersPerEpoch())
				}
			}
			for j, v := range e.Snapshot(nil) {
				if v != v {
					t.Fatalf("NaN weight at %d after concurrent epochs", j)
				}
			}
		})
	}
}

// TestConcurrentEpochsRacy32Model exercises the f32 true-Hogwild write
// path with many workers. Races on f32
// coordinates are the documented noise model, so this skips under
// -race; without the detector it checks full update counts and finite
// weights.
func TestConcurrentEpochsRacy32Model(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("racy model is deliberately unsynchronized; skipped under -race")
	}
	ds, obj := smallProblem(t)
	for _, kind := range []model.Kind{model.KindRacy32} {
		t.Run(kind.String(), func(t *testing.T) {
			e, err := NewISASGD(ds, obj, model.New(kind, ds.Dim()), 8, balance.ForceShuffle, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			for epoch := 0; epoch < 3; epoch++ {
				if n := e.RunEpoch(0.1); n != e.ItersPerEpoch() {
					t.Fatalf("epoch applied %d of %d updates", n, e.ItersPerEpoch())
				}
			}
			for j, v := range e.Snapshot(nil) {
				if v != v {
					t.Fatalf("NaN weight at %d", j)
				}
			}
		})
	}
}
