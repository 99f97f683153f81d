package core

import (
	"math"
	"testing"

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/obs"
)

// TestSetAdaptiveValidation pins the rejection matrix: bad knobs are
// refused, a disabled policy always detaches cleanly, and an adaptive
// policy and a minibatch exclude each other whichever is set first —
// SetBatch after SetAdaptive used to be accepted and silently ran the
// minibatch loop with the policy ignored.
func TestSetAdaptiveValidation(t *testing.T) {
	ds, obj := smallProblem(t)
	newEngine := func() *Engine {
		e, err := NewASGD(ds, obj, model.NewRacy(ds.Dim()), 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := newEngine()
	if err := e.SetAdaptive(adaptive.Policy{AdaptC: -1}); err == nil {
		t.Fatal("negative AdaptC accepted")
	}
	if err := e.SetAdaptive(adaptive.Policy{DCLambda: math.NaN()}); err == nil {
		t.Fatal("NaN DCLambda accepted")
	}
	if err := e.SetAdaptive(adaptive.Policy{AdaptC: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetAdaptive(adaptive.Policy{}); err != nil {
		t.Fatalf("disabling failed: %v", err)
	}

	if err := e.SetBatch(8); err != nil {
		t.Fatalf("minibatch on a plain engine: %v", err)
	}
	if err := e.SetAdaptive(adaptive.Policy{AdaptC: 0.1}); err == nil {
		t.Fatal("adaptive policy accepted on a minibatch engine")
	}

	e = newEngine()
	if err := e.SetAdaptive(adaptive.Policy{StalenessBound: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetBatch(8); err == nil {
		t.Fatal("minibatch accepted on an adaptive engine")
	}
	if err := e.SetBatch(1); err != nil {
		t.Fatalf("batch 1 is single-sample and must stay legal: %v", err)
	}
	if err := e.SetAdaptive(adaptive.Policy{}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetBatch(8); err != nil {
		t.Fatalf("minibatch after detaching the policy: %v", err)
	}
}

// TestAdaptiveSingleWorkerMatchesPlain pins the τ = 0 semantics: with one
// worker there is no staleness, so attenuation and shedding are inert and
// an adaptive run must be bitwise-identical to the plain engine under the
// same seed (the decomposed dot/deriv/update is exactly Step's
// arithmetic, and DC compensation against a zero-drift base is a plain
// update only when λ = 0 — so the policy here enables scaling+bound only).
func TestAdaptiveSingleWorkerMatchesPlain(t *testing.T) {
	ds, obj := smallProblem(t)
	for _, kind := range []model.Kind{model.KindRacy, model.KindRacy32, model.KindRacy32Blocked, model.KindAtomic32} {
		plain, err := NewISSGD(ds, obj, model.New(kind, ds.Dim()), 7, false)
		if err != nil {
			t.Fatal(err)
		}
		adapt, err := NewISSGD(ds, obj, model.New(kind, ds.Dim()), 7, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := adapt.SetAdaptive(adaptive.Policy{AdaptC: 0.5, StalenessBound: 1}); err != nil {
			t.Fatal(err)
		}
		for ep := 0; ep < 3; ep++ {
			plain.RunEpoch(0.5)
			adapt.RunEpoch(0.5)
		}
		wp := plain.Snapshot(nil)
		wa := adapt.Snapshot(nil)
		for j := range wp {
			if math.Float64bits(wp[j]) != math.Float64bits(wa[j]) {
				t.Fatalf("%v: coordinate %d diverged: plain %g vs adaptive %g", kind, j, wp[j], wa[j])
			}
		}
		if adapt.Shed() != 0 {
			t.Fatalf("%v: single worker shed %d updates, want 0", kind, adapt.Shed())
		}
	}
}

// TestAdaptiveConcurrentConverges runs the full adaptive stack — step
// attenuation, a staleness bound, and delay compensation — under real
// concurrency on both precisions and requires the run to still optimize,
// the f32 run into the same band as the f64 one.
func TestAdaptiveConcurrentConverges(t *testing.T) {
	ds, obj := smallProblem(t)
	run := func(kind model.Kind) float64 {
		e, err := NewISASGD(ds, obj, model.New(kind, ds.Dim()), 8, balance.Auto, 0, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetAdaptive(adaptive.Policy{AdaptC: 0.05, StalenessBound: 256, DCLambda: 0.04}); err != nil {
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
		if e.Shed() < 0 {
			t.Fatalf("%v: negative shed count", kind)
		}
		return after
	}
	o64 := run(model.KindAtomic)
	if o32 := run(model.KindAtomic32); math.Abs(o32-o64) > 0.05*(1+math.Abs(o64)) {
		t.Fatalf("f32 adaptive objective %g vs f64 %g — outside the 5%% band", o32, o64)
	}
}

// TestAdaptiveTightBoundSheds forces shedding: with many workers and a
// bound of zero ticks, every update that races another must drop. The
// run must still terminate with the full iteration count and finite
// weights.
func TestAdaptiveTightBoundSheds(t *testing.T) {
	ds, obj := smallProblem(t)
	for _, kind := range []model.Kind{model.KindAtomic, model.KindAtomic32} {
		e, err := NewASGD(ds, obj, model.New(kind, ds.Dim()), 8, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetAdaptive(adaptive.Policy{StalenessBound: 1}); err != nil {
			t.Fatal(err)
		}
		var iters int64
		for ep := 0; ep < 3; ep++ {
			iters += e.RunEpoch(0.5)
		}
		if iters != 3*int64(ds.N()) {
			t.Fatalf("%v: iters = %d, want %d", kind, iters, 3*ds.N())
		}
		w := e.Snapshot(nil)
		if j := model.FirstNonFinite(w); j >= 0 {
			t.Fatalf("%v: non-finite weight at %d", kind, j)
		}
		t.Logf("%v: shed %d of %d attempted updates", kind, e.Shed(), iters)
	}
}

// TestAdaptiveZeroAllocEpoch guards the steady-state contract: adaptive
// epochs (including DC compensation against the reused base buffer)
// allocate nothing once the first epoch has materialized the base.
func TestAdaptiveZeroAllocEpoch(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	ds, obj := smallProblem(t)
	for _, kind := range []model.Kind{model.KindRacy, model.KindRacy32, model.KindRacy32Blocked, model.KindAtomic32} {
		e, err := NewISSGD(ds, obj, model.New(kind, ds.Dim()), 7, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetAdaptive(adaptive.Policy{AdaptC: 0.1, DCLambda: 0.01}); err != nil {
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
		if err := e.SetAdaptive(adaptive.Policy{DCLambda: lam}); err != nil {
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
// one update clock on every path of the worker loop, at both precisions:
// a single worker never sees an interleaved update, so every logical
// update — one per sample, or one per minibatch — observes exactly 0.
func TestInstrumentedStaleness(t *testing.T) {
	ds, obj := smallProblem(t)
	for _, kind := range []model.Kind{model.KindRacy, model.KindRacy32} {
		for _, mode := range []string{"plain", "batch", "adaptive"} {
			e, err := NewISSGD(ds, obj, model.New(kind, ds.Dim()), 7, false)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(ds.N())
			switch mode {
			case "batch":
				if err := e.SetBatch(8); err != nil {
					t.Fatal(err)
				}
				want = (want + 7) / 8
			case "adaptive":
				if err := e.SetAdaptive(adaptive.Policy{AdaptC: 0.5, StalenessBound: 1}); err != nil {
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
