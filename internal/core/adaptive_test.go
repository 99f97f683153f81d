package core

import (
	"math"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/obs"
)

// TestSetDCValidation pins the rejection matrix: a negative or NaN λ
// is refused and λ = 0 always detaches cleanly.
func TestSetDCValidation(t *testing.T) {
	ds, obj := smallProblem(t)
	e, err := NewASGD(ds, obj, model.NewRacy(ds.Dim()), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetDC(-1); err == nil {
		t.Fatal("negative DCLambda accepted")
	}
	if err := e.SetDC(math.NaN()); err == nil {
		t.Fatal("NaN DCLambda accepted")
	}
	if err := e.SetDC(0.1); err != nil {
		t.Fatal(err)
	}
	if err := e.SetDC(0); err != nil {
		t.Fatalf("disabling failed: %v", err)
	}
}

// TestAdaptiveSingleWorkerMatchesPlain pins the τ = 0 semantics of the
// probing body: with one worker no update interleaves, and the clock
// only feeds the histograms, so a gradient-norm run with the staleness
// histograms attached (the probing body, which reads the clock) must be
// bitwise-identical to the same run without them (the recording body,
// which never touches it) under the same seed.
func TestAdaptiveSingleWorkerMatchesPlain(t *testing.T) {
	ds, obj := smallProblem(t)
	for _, kind := range []model.Kind{model.KindRacy, model.KindRacy32, model.KindAtomic32} {
		var w [2][]float64
		for k := range w {
			e, err := NewISASGDOpts(ds, obj, model.New(kind, ds.Dim()), 1, ISOptions{Seed: 7, Importance: "grad"})
			if err != nil {
				t.Fatal(err)
			}
			if k == 1 {
				e.Instrument(obs.NewTrainInstruments(obs.NewRegistry(), "m"))
			}
			for ep := 0; ep < 3; ep++ {
				e.RunEpoch(0.5)
			}
			w[k] = e.Snapshot(nil)
		}
		for j := range w[0] {
			if math.Float64bits(w[0][j]) != math.Float64bits(w[1][j]) {
				t.Fatalf("%v: coordinate %d diverged: plain %g vs instrumented %g", kind, j, w[0][j], w[1][j])
			}
		}
	}
}

// TestAdaptiveConcurrentConverges runs delay compensation under real
// concurrency on both precisions and requires the run to still optimize,
// the f32 run into the same band as the f64 one.
func TestAdaptiveConcurrentConverges(t *testing.T) {
	ds, obj := smallProblem(t)
	run := func(kind model.Kind) float64 {
		e, err := NewISASGD(ds, obj, model.New(kind, ds.Dim()), 8, balance.ForceShuffle, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetDC(0.04); err != nil {
			t.Fatal(err)
		}
		before := objValue(ds, obj, e.Snapshot(nil))
		for ep := 0; ep < 5; ep++ {
			e.RunEpoch(0.5)
		}
		after := objValue(ds, obj, e.Snapshot(nil))
		if math.IsNaN(after) || math.IsInf(after, 0) {
			t.Fatalf("%v: objective went non-finite: %g", kind, after)
		}
		if after >= before*0.8 {
			t.Fatalf("%v: adaptive IS-ASGD failed to optimize: %g -> %g", kind, before, after)
		}
		return after
	}
	o64 := run(model.KindAtomic)
	if o32 := run(model.KindAtomic32); math.Abs(o32-o64) > 0.05*(1+math.Abs(o64)) {
		t.Fatalf("f32 adaptive objective %g vs f64 %g — outside the 5%% band", o32, o64)
	}
}

// TestAdaptiveZeroAllocEpoch guards the steady-state contract: DC
// epochs, compensating against the reused base buffer, allocate nothing
// once the first epoch has materialized the base.
func TestAdaptiveZeroAllocEpoch(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	ds, obj := smallProblem(t)
	for _, kind := range []model.Kind{model.KindRacy, model.KindRacy32, model.KindAtomic32} {
		e, err := NewISSGD(ds, obj, model.New(kind, ds.Dim()), 7, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetDC(0.01); err != nil {
			t.Fatal(err)
		}
		e.RunEpoch(0.01) // materialize the DC base buffer
		if n := testing.AllocsPerRun(3, func() { e.RunEpoch(0.01) }); n != 0 {
			t.Fatalf("%v: adaptive epoch allocates %.2f/op, want 0", kind, n)
		}
	}
}

// TestAdaptiveDCDeterministicDampens checks the DC semantics end to end
// on a sequential engine: against a drifted base the compensated run is
// deterministic and differs from the uncompensated one (λ touches the
// arithmetic), while both stay finite.
func TestAdaptiveDCDeterministicDampens(t *testing.T) {
	ds, obj := smallProblem(t)
	run := func(lam float64) []float64 {
		e, err := NewISSGD(ds, obj, model.NewRacy(ds.Dim()), 7, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetDC(lam); err != nil {
			t.Fatal(err)
		}
		for ep := 0; ep < 3; ep++ {
			e.RunEpoch(0.5)
		}
		return e.Snapshot(nil)
	}
	w1 := run(0.05)
	w2 := run(0.05)
	for j := range w1 {
		if math.Float64bits(w1[j]) != math.Float64bits(w2[j]) {
			t.Fatalf("DC run not deterministic at coordinate %d", j)
		}
	}
	if j := model.FirstNonFinite(w1); j >= 0 {
		t.Fatalf("non-finite weight at %d", j)
	}
	objDC := objValue(ds, obj, w1)
	if math.IsNaN(objDC) || math.IsInf(objDC, 0) {
		t.Fatalf("DC objective non-finite: %g", objDC)
	}
}

// TestInstrumentedStaleness checks the τ histograms against the engine's
// one update clock on the instrumented and the probing (DC) body of the
// worker loop, at both precisions: a single worker never sees an
// interleaved update, so every update observes exactly 0.
func TestInstrumentedStaleness(t *testing.T) {
	ds, obj := smallProblem(t)
	for _, kind := range []model.Kind{model.KindRacy, model.KindRacy32} {
		for _, mode := range []string{"plain", "adaptive"} {
			e, err := NewISSGD(ds, obj, model.New(kind, ds.Dim()), 7, false)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(ds.N())
			if mode == "adaptive" {
				if err := e.SetDC(0.05); err != nil {
					t.Fatal(err)
				}
			}
			ti := obs.NewTrainInstruments(obs.NewRegistry(), "m")
			e.Instrument(ti)
			e.RunEpoch(0.3)
			h := ti.WorkerStaleness(1)[0]
			if h.Count() != want || h.Quantile(1) != 0 {
				t.Errorf("%v/%s: %d staleness samples, max %g; want %d samples, all 0",
					kind, mode, h.Count(), h.Quantile(1), want)
			}
		}
	}
}
