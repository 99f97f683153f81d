package solver

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/sparse"
)

func testProblem(t *testing.T) (*dataset.Dataset, objective.Objective) {
	t.Helper()
	ds, err := dataset.Synthesize(dataset.Small(31))
	if err != nil {
		t.Fatal(err)
	}
	return ds, objective.LogisticL1{Eta: 1e-4}
}

func TestParseAlgo(t *testing.T) {
	cases := map[string]Algo{
		"sgd": SGD, "SGD": SGD,
		"is-sgd": ISSGD, "IS_SGD": ISSGD,
		"asgd": ASGD, "is-asgd": ISASGD, " is-asgd ": ISASGD,
		"svrg-sgd": SVRGSGD, "svrg-asgd": SVRGASGD, "saga": SAGA,
	}
	for s, want := range cases {
		got, err := ParseAlgo(s)
		if err != nil || got != want {
			t.Errorf("ParseAlgo(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseAlgo("adam"); err == nil {
		t.Error("ParseAlgo accepted unknown name")
	}
}

func TestAlgoStringRoundTrip(t *testing.T) {
	for _, a := range []Algo{SGD, ISSGD, ASGD, ISASGD, SVRGSGD, SVRGASGD, SAGA} {
		back, err := ParseAlgo(a.String())
		if err != nil || back != a {
			t.Errorf("round trip failed for %v", a)
		}
	}
}

func TestAsync(t *testing.T) {
	if SGD.Async() || ISSGD.Async() || SVRGSGD.Async() || SAGA.Async() {
		t.Error("sequential algo reported async")
	}
	if !ASGD.Async() || !ISASGD.Async() || !SVRGASGD.Async() {
		t.Error("async algo reported sequential")
	}
}

func TestConfigValidation(t *testing.T) {
	ds, obj := testProblem(t)
	bad := []Config{
		{Algo: SGD, Epochs: 0, Step: 0.1},
		{Algo: SGD, Epochs: 2, Step: 0},
		{Algo: SGD, Epochs: 2, Step: math.NaN()},
		{Algo: SGD, Epochs: 2, Step: math.Inf(1)},
		{Algo: SGD, Epochs: 2, Step: 0.1, StepDecay: 1.5},
		{Algo: SGD, Epochs: 2, Step: 0.1, StepDecay: -0.1},
	}
	for i, cfg := range bad {
		if _, err := Train(context.Background(), ds, obj, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	empty := &dataset.Dataset{Name: "empty", X: sparse.NewCSRBuilder(2).Build()}
	if _, err := Train(context.Background(), empty, obj, Config{Algo: SGD, Epochs: 1, Step: 0.1}); err == nil {
		t.Error("empty dataset accepted")
	}
}

// TestAllAlgorithmsConverge is the core correctness test: every algorithm
// must cut the initial objective substantially on a small well-
// conditioned problem, and produce a well-formed curve.
func TestAllAlgorithmsConverge(t *testing.T) {
	ds, obj := testProblem(t)
	for _, algo := range []Algo{SGD, ISSGD, ASGD, ISASGD, SVRGSGD, SVRGASGD, SAGA} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Algo: algo, Epochs: 6, Step: 0.5, Threads: 4, Seed: 11,
			}
			res, err := Train(context.Background(), ds, obj, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := res.Curve
			if len(c) != 7 { // initial + 6 epochs
				t.Fatalf("curve has %d points, want 7", len(c))
			}
			first, last := c[0], c.Final()
			if last.Obj >= first.Obj*0.8 {
				t.Fatalf("objective barely moved: %g -> %g", first.Obj, last.Obj)
			}
			if last.BestErr > 0.25 {
				t.Fatalf("best error %g too high", last.BestErr)
			}
			if res.Iters != int64(6*ds.N()) {
				t.Fatalf("iters = %d, want %d", res.Iters, 6*ds.N())
			}
			if len(res.Weights) != ds.Dim() {
				t.Fatalf("weights len = %d", len(res.Weights))
			}
			// Wall-clock must be monotone over the curve.
			for i := 1; i < len(c); i++ {
				if c[i].Wall < c[i-1].Wall {
					t.Fatal("wall-clock not monotone")
				}
			}
		})
	}
}

func TestISASGDDecisionExposed(t *testing.T) {
	ds, obj := testProblem(t)
	res, err := Train(context.Background(), ds, obj, Config{
		Algo: ISASGD, Epochs: 2, Step: 0.5, Threads: 4, Seed: 3,
		Balance: balance.ForceBalance,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decision.Balanced || res.Decision.Rho <= 0 {
		t.Fatalf("decision = %+v", res.Decision)
	}
}

func TestSequentialAlgosIgnoreThreads(t *testing.T) {
	ds, obj := testProblem(t)
	res, err := Train(context.Background(), ds, obj, Config{
		Algo: SGD, Epochs: 1, Step: 0.3, Threads: 16, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads != 1 {
		t.Fatalf("sequential run recorded %d threads", res.Threads)
	}
}

func TestContextCancellation(t *testing.T) {
	ds, obj := testProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first epoch
	res, err := Train(ctx, ds, obj, Config{Algo: SGD, Epochs: 100, Step: 0.1, Seed: 1})
	if err == nil {
		t.Fatal("cancelled training reported success")
	}
	if res == nil || len(res.Curve) == 0 {
		t.Fatal("cancelled training should return the partial result")
	}
	if res.Curve.Final().Epoch != 0 {
		t.Fatalf("expected only the initial eval point, got epoch %d", res.Curve.Final().Epoch)
	}
}

func TestContextTimeoutMidRun(t *testing.T) {
	ds, obj := testProblem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := Train(ctx, ds, obj, Config{Algo: SGD, Epochs: 1 << 30, Step: 0.01, Seed: 1})
	if err == nil {
		t.Fatal("timed-out training reported success")
	}
	if res == nil {
		t.Fatal("no partial result")
	}
}

func TestEvalEvery(t *testing.T) {
	ds, obj := testProblem(t)
	res, err := Train(context.Background(), ds, obj, Config{
		Algo: SGD, Epochs: 7, Step: 0.3, Seed: 2, EvalEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Points at epochs 0, 3, 6, 7 (final is always recorded).
	got := make([]int, 0, 4)
	for _, p := range res.Curve {
		got = append(got, p.Epoch)
	}
	want := []int{0, 3, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("epochs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epochs = %v, want %v", got, want)
		}
	}
}

func TestStepDecayApplied(t *testing.T) {
	// With aggressive decay the late epochs barely move the model; the
	// run must stay finite and converge at least as well as the first
	// epochs did.
	ds, obj := testProblem(t)
	res, err := Train(context.Background(), ds, obj, Config{
		Algo: SGD, Epochs: 10, Step: 0.5, StepDecay: 0.5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Curve
	late := math.Abs(c[len(c)-1].Obj - c[len(c)-2].Obj)
	early := math.Abs(c[1].Obj - c[0].Obj)
	if late > early {
		t.Fatalf("decay not effective: early delta %g, late delta %g", early, late)
	}
}

func TestDeterministicSequentialRuns(t *testing.T) {
	ds, obj := testProblem(t)
	run := func() []float64 {
		res, err := Train(context.Background(), ds, obj, Config{
			Algo: ISSGD, Epochs: 3, Step: 0.4, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Weights
	}
	if sparse.MaxAbsDiff(run(), run()) != 0 {
		t.Fatal("IS-SGD not reproducible under fixed seed")
	}
}

func TestDivergenceDetected(t *testing.T) {
	ds, _ := testProblem(t)
	// Least squares with an absurd step diverges to Inf/NaN quickly.
	obj := objective.LeastSquaresL2{Eta: 0}
	_, err := Train(context.Background(), ds, obj, Config{
		Algo: SGD, Epochs: 30, Step: 1e6, Seed: 1,
	})
	if err == nil {
		t.Fatal("divergence not reported")
	}
}

func TestModelKindRacySolves(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("racy Hogwild model skipped under -race")
	}
	ds, obj := testProblem(t)
	res, err := Train(context.Background(), ds, obj, Config{
		Algo: ASGD, Epochs: 4, Step: 0.5, Threads: 4, Seed: 5,
		ModelKind: model.KindRacy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve.Final().Obj >= res.Curve[0].Obj*0.8 {
		t.Fatal("racy ASGD failed to optimize")
	}
}

// TestAdaptiveConfigValidation pins the rejection matrix for the
// adaptive-update knobs, and that a valid adaptive run still converges.
func TestAdaptiveConfigValidation(t *testing.T) {
	ds, obj := testProblem(t)
	bad := []Config{
		{Algo: SVRGSGD, Epochs: 2, Step: 0.1, AdaptC: 0.1},
		{Algo: SAGA, Epochs: 2, Step: 0.1, DCLambda: 0.1},
		{Algo: ISASGD, Epochs: 2, Step: 0.1, AdaptC: -1},
		{Algo: ISASGD, Epochs: 2, Step: 0.1, StalenessBound: -3},
		{Algo: ISASGD, Epochs: 2, Step: 0.1, DCLambda: math.Inf(1)},
		{Algo: ISASGD, Epochs: 2, Step: 0.1, AdaptC: 0.1, Batch: 8},
	}
	for i, cfg := range bad {
		if _, err := Train(context.Background(), ds, obj, cfg); err == nil {
			t.Errorf("adaptive config %d accepted", i)
		}
	}
}

// TestAdaptiveTrainConverges drives the full adaptive stack through
// Train: staleness-attenuated, bounded, delay-compensated IS-ASGD must
// still cut the objective like its plain counterpart, at either
// precision, the f32 run landing in the f64 run's band.
func TestAdaptiveTrainConverges(t *testing.T) {
	ds, obj := testProblem(t)
	final := map[string]float64{}
	for _, precision := range []string{"f64", "f32"} {
		res, err := Train(context.Background(), ds, obj, Config{
			Algo: ISASGD, Epochs: 6, Step: 0.5, Threads: 4, Seed: 11, Precision: precision,
			AdaptC: 0.05, StalenessBound: 512, DCLambda: 0.02,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := res.Curve
		if last, first := c.Final(), c[0]; last.Obj >= first.Obj*0.8 {
			t.Fatalf("%s adaptive run barely moved: %g -> %g", precision, first.Obj, last.Obj)
		}
		final[precision] = c.Final().Obj
	}
	if o32, o64 := final["f32"], final["f64"]; math.Abs(o32-o64) > 0.05*(1+math.Abs(o64)) {
		t.Fatalf("f32 adaptive objective %g vs f64 %g — outside the 5%% band", o32, o64)
	}
}
