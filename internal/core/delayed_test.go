package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
)

// delayedArms are the constructions the delayed-executor tests run: the
// uniform arm and both importance modes, each built with `threads`
// workers at seed 7.
var delayedArms = []struct {
	name  string
	build func(ds *dataset.Dataset, obj objective.Objective, m model.Params, threads int) (*Engine, error)
}{
	{"uniform", func(ds *dataset.Dataset, obj objective.Objective, m model.Params, threads int) (*Engine, error) {
		return NewASGD(ds, obj, m, threads, 7)
	}},
	{"bound", func(ds *dataset.Dataset, obj objective.Objective, m model.Params, threads int) (*Engine, error) {
		return NewISASGDOpts(ds, obj, m, threads, ISOptions{Mode: balance.ForceShuffle, Seed: 7})
	}},
	{"grad", func(ds *dataset.Dataset, obj objective.Objective, m model.Params, threads int) (*Engine, error) {
		return NewISASGDOpts(ds, obj, m, threads, ISOptions{Mode: balance.ForceShuffle, Seed: 7, Importance: "grad"})
	}},
}

// sameBits fails unless a and b are bitwise equal.
func sameBits(t *testing.T, a, b []float64) {
	t.Helper()
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			t.Fatalf("coordinate %d: %g vs %g", j, a[j], b[j])
		}
	}
}

// TestDelayedZeroIsRunEpoch pins the executor to the threaded loop: at
// τ = 0 a 1-worker engine applies each update right after reading it, so
// its epochs are bitwise the ones RunEpoch runs — uniform, bound and
// grad importance, plain and under delay compensation, in both
// precisions.
func TestDelayedZeroIsRunEpoch(t *testing.T) {
	ds, obj := smallProblem(t)
	for _, arm := range delayedArms {
		for _, kind := range []model.Kind{model.KindRacy, model.KindRacy32} {
			for _, lambda := range []float64{0, 0.05} {
				t.Run(fmt.Sprintf("%s/%v/%v", arm.name, kind, lambda > 0), func(t *testing.T) {
					var w [2][]float64
					for k := range w {
						e, err := arm.build(ds, obj, model.New(kind, ds.Dim()), 1)
						if err != nil {
							t.Fatal(err)
						}
						if err := e.SetDC(lambda); err != nil {
							t.Fatal(err)
						}
						for ep := 0; ep < 3; ep++ {
							if k == 0 {
								e.RunEpoch(0.3)
							} else if n := e.RunEpochDelayed(0.3, 0); n != int64(ds.N()) {
								t.Fatalf("epoch ran %d updates, want %d", n, ds.N())
							}
						}
						w[k] = e.Snapshot(nil)
					}
					sameBits(t, w[0], w[1])
				})
			}
		}
	}
}

// TestDelayedRepeats runs each arm twice at one seed on 4 workers: the
// executor has no goroutines, so the runs must agree bit for bit at
// every delay, in both precisions.
func TestDelayedRepeats(t *testing.T) {
	ds, obj := smallProblem(t)
	for _, arm := range delayedArms {
		for _, kind := range []model.Kind{model.KindRacy, model.KindRacy32} {
			for _, tau := range []int{0, 1, 7, 63} {
				var w [2][]float64
				for k := range w {
					e, err := arm.build(ds, obj, model.New(kind, ds.Dim()), 4)
					if err != nil {
						t.Fatal(err)
					}
					for ep := 0; ep < 2; ep++ {
						e.RunEpochDelayed(0.5, tau)
					}
					w[k] = e.Snapshot(nil)
				}
				sameBits(t, w[0], w[1])
			}
		}
	}
}

// TestDelayedSmallTauConverges: a delay far below the dataset size still
// optimizes, uniform and importance-sampled.
func TestDelayedSmallTauConverges(t *testing.T) {
	ds, obj := smallProblem(t)
	for _, arm := range delayedArms[:2] {
		for _, tau := range []int{8, 64} {
			e, err := arm.build(ds, obj, model.NewRacy(ds.Dim()), 1)
			if err != nil {
				t.Fatal(err)
			}
			for ep := 0; ep < 6; ep++ {
				e.RunEpochDelayed(0.5, tau)
			}
			if o := objValue(ds, obj, e.Snapshot(nil)); o >= 0.85*math.Ln2 {
				t.Fatalf("%s τ=%d: obj %g did not improve enough", arm.name, tau, o)
			}
		}
	}
}

// TestHugeDelayDegradesConvergence checks the Section-3 prediction:
// beyond the admissible τ the asynchrony noise dominates and convergence
// visibly degrades relative to τ = 0. A consistent least-squares system
// makes this deterministic — the quadratic's curvature turns stale
// gradients into oscillation once λ·L·τ is large, while the fresh
// iteration drives the residual towards zero.
func TestHugeDelayDegradesConvergence(t *testing.T) {
	cfg := dataset.Small(92)
	cfg.LabelNoise = 0
	ds, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Plant an exact solution.
	planted := make([]float64, ds.Dim())
	for j := range planted {
		planted[j] = math.Sin(0.3 * float64(j))
	}
	for i := 0; i < ds.N(); i++ {
		ds.Y[i] = ds.X.Row(i).Dot(planted)
	}
	obj := objective.LeastSquaresL2{Eta: 0}
	maxL := 0.0
	for _, l := range objective.Weights(ds.X, obj) {
		maxL = math.Max(maxL, l)
	}
	step := 0.8 / maxL

	final := func(tau int) float64 {
		e, err := NewSGD(ds, obj, model.NewRacy(ds.Dim()), 5)
		if err != nil {
			t.Fatal(err)
		}
		for ep := 0; ep < 10; ep++ {
			e.RunEpochDelayed(step, tau)
		}
		return objValue(ds, obj, e.Snapshot(nil))
	}
	fresh := final(0)
	// τ equal to the whole dataset: every gradient of an epoch is read
	// from the epoch's starting model.
	ancient := final(ds.N())
	t.Logf("objective after 10 epochs: τ=0 %g, τ=n %g", fresh, ancient)
	if !(ancient > 2*fresh) {
		t.Fatalf("τ=n (%g) not clearly worse than τ=0 (%g)", ancient, fresh)
	}
}

// TestDelayedStalenessReadBack injects τ and reads it back from the
// loop's histograms: the ring fills over the first τ updates of an epoch
// (staleness 0, 1, …, τ−1) and every later update reads exactly τ.
func TestDelayedStalenessReadBack(t *testing.T) {
	ds, obj := smallProblem(t)
	n := int64(ds.N())
	for _, workers := range []int{1, 4} {
		for _, tau := range []int64{1, 5, 33} {
			e, err := NewISASGDOpts(ds, obj, model.NewRacy(ds.Dim()), workers, ISOptions{Mode: balance.ForceShuffle, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			ti := obs.NewTrainInstruments(obs.NewRegistry(), "m")
			e.Instrument(ti)
			const epochs = 2
			for ep := 0; ep < epochs; ep++ {
				e.RunEpochDelayed(0.3, int(tau))
			}
			var count int64
			var sum float64
			for _, h := range ti.WorkerStaleness(workers) {
				count += h.Count()
				sum += h.Sum()
			}
			wantSum := float64(epochs * (tau*(tau-1)/2 + (n-tau)*tau))
			if count != epochs*n || sum != wantSum {
				t.Errorf("P=%d τ=%d: %d samples summing to %g, want %d summing to %g",
					workers, tau, count, sum, epochs*n, wantSum)
			}
		}
	}
}

// TestDelayedZeroAllocEpoch: once the ring and the sequences exist, a
// delayed epoch allocates nothing, in both precisions and importance
// modes, with the τ histograms attached.
func TestDelayedZeroAllocEpoch(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	ds, obj := smallProblem(t)
	for _, arm := range delayedArms {
		for _, kind := range []model.Kind{model.KindRacy, model.KindRacy32} {
			e, err := arm.build(ds, obj, model.New(kind, ds.Dim()), 2)
			if err != nil {
				t.Fatal(err)
			}
			e.Instrument(obs.NewTrainInstruments(obs.NewRegistry(), "m"))
			e.RunEpochDelayed(0.1, 7) // allocate the ring
			if a := testing.AllocsPerRun(3, func() { e.RunEpochDelayed(0.1, 7) }); a != 0 {
				t.Fatalf("%s/%v: delayed epoch allocates %.2f/op, want 0", arm.name, kind, a)
			}
		}
	}
}

func TestDelayedNegativeTauPanics(t *testing.T) {
	ds, obj := smallProblem(t)
	e, err := NewSGD(ds, obj, model.NewRacy(ds.Dim()), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay accepted")
		}
	}()
	e.RunEpochDelayed(0.1, -1)
}
