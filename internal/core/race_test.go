package core

import (
	"sync"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/model"
)

// TestConcurrentEpochsAtomicModel drives the CAS write path (Atomic
// model) with many workers across every engine construction. Run under
// -race this verifies the race-free claim of model.Atomic end to end:
// the only shared mutable state in RunEpoch is the model, so a clean
// pass means the CAS path is the complete synchronization story.
func TestConcurrentEpochsAtomicModel(t *testing.T) {
	ds, obj := smallProblem(t)
	const threads = 8
	builders := map[string]func() (*Engine, error){
		"asgd": func() (*Engine, error) {
			return NewASGD(ds, obj, model.NewAtomic(ds.Dim()), threads, 1)
		},
		"is-asgd": func() (*Engine, error) {
			return NewISASGD(ds, obj, model.NewAtomic(ds.Dim()), threads, balance.ForceShuffle, 1, false)
		},
		"is-asgd-balanced": func() (*Engine, error) {
			return NewISASGD(ds, obj, model.NewAtomic(ds.Dim()), threads, balance.ForceBalance, 1, true)
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
			w := e.Snapshot(nil)
			for j, v := range w {
				if v != v {
					t.Fatalf("NaN weight at %d after concurrent epochs", j)
				}
			}
		})
	}
}

// TestConcurrentEpochsRacyModel exercises the plain (true Hogwild)
// write path with many workers. The data races on model coordinates are
// the algorithm's documented noise model, so this test must skip itself
// under -race; without the detector it checks the racy path still
// produces finite weights and full update counts.
func TestConcurrentEpochsRacyModel(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("racy model is deliberately unsynchronized; skipped under -race")
	}
	ds, obj := smallProblem(t)
	e, err := NewISASGD(ds, obj, model.NewRacy(ds.Dim()), 8, balance.ForceShuffle, 1, false)
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
}

// TestSnapshotDuringEpochAtomic reads model snapshots concurrently with
// a running epoch on the Atomic model — the pattern the serving
// registry's hot-export and the solver's progress callbacks rely on.
// Under -race this pins down that Snapshot is safe against CAS writers.
func TestSnapshotDuringEpochAtomic(t *testing.T) {
	ds, obj := smallProblem(t)
	e, err := NewASGD(ds, obj, model.NewAtomic(ds.Dim()), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]float64, ds.Dim())
		for {
			select {
			case <-stop:
				return
			default:
				buf = e.Snapshot(buf)
				_ = buf[0]
			}
		}
	}()
	for epoch := 0; epoch < 2; epoch++ {
		e.RunEpoch(0.05)
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentEpochsGrad runs gradient-norm importance with two
// workers: each records |ℓ'| into the rows of its own shard while the
// other trains, and reweighs its shard from them at its epoch's end.
// Under -race it proves the record and the rebuilds share nothing but
// the model.
func TestConcurrentEpochsGrad(t *testing.T) {
	for _, kind := range []model.Kind{model.KindAtomic, model.KindAtomic32} {
		e := gradEngine(t, kind, 2, 3)
		before := e.Snapshot(nil)
		for epoch := 0; epoch < 4; epoch++ {
			if n := e.RunEpoch(0.5); n != e.ItersPerEpoch() {
				t.Fatalf("%v: epoch applied %d of %d updates", kind, n, e.ItersPerEpoch())
			}
		}
		ds, obj := smallProblem(t)
		if got, was := objValue(ds, obj, e.Snapshot(nil)), objValue(ds, obj, before); !(got < was*0.9) {
			t.Fatalf("%v: grad-importance epochs moved the objective %g -> %g", kind, was, got)
		}
	}
}
