package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/spec"
)

// Algo identifies a training algorithm: one Engine construction.
type Algo int

// The supported algorithms, in the order of spec's capability table.
const (
	SGD      Algo = iota // sequential uniform-sampling baseline (Eq. 3)
	ISSGD                // sequential importance sampling (Algorithm 2)
	ASGD                 // lock-free asynchronous SGD (Hogwild)
	ISASGD               // the paper's contribution (Algorithm 4)
	SVRGSGD              // sequential sparse SVRG (NewSVRG)
	SVRGASGD             // asynchronous sparse SVRG (Algorithm 1, NewSVRG)
)

var algoNames = [...]string{"sgd", "is-sgd", "asgd", "is-asgd", "svrg-sgd", "svrg-asgd"}

// String returns the canonical lowercase name.
func (a Algo) String() string {
	if a >= 0 && int(a) < len(algoNames) {
		return algoNames[a]
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// ParseAlgo resolves a name (case-insensitive, with '_' or '-') to an
// Algo through the spec's capability table.
func ParseAlgo(s string) (Algo, error) {
	c, err := spec.LookupAlgo(s)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	for a, name := range algoNames {
		if c.Name == name {
			return Algo(a), nil
		}
	}
	return 0, fmt.Errorf("core: algorithm %q has no engine", c.Name)
}

// Async reports whether the algorithm runs concurrent workers.
func (a Algo) Async() bool {
	c, _ := spec.LookupAlgo(a.String())
	return c.Async
}

// Config controls a training run. Zero values select documented defaults.
type Config struct {
	Algo      Algo
	Epochs    int     // > 0
	Step      float64 // λ; > 0
	StepDecay float64 // per-epoch multiplicative decay; default 1 (constant)
	Threads   int     // workers for async algos; default GOMAXPROCS

	// Importance selects the sampling weights of IS-SGD and IS-ASGD: ""
	// or "bound" keeps the static Lipschitz bounds of Eq. 12; "grad"
	// reweighs every epoch by the Eq.-11 gradient norms |ℓ'(z_i)|·‖x_i‖
	// the updates themselves recorded (see ISOptions.Importance).
	// Rejected for the uniform algorithms.
	Importance string

	// DCLambda > 0 applies DC-ASGD delay compensation
	// λ·d²·(w_now − w_base) against an epoch-start base snapshot (SGD,
	// IS-SGD, ASGD, IS-ASGD at either precision; rejected for SVRG).
	DCLambda float64

	ModelKind model.Kind // async model storage; default KindAtomic

	// Precision selects the data-path width: model.PrecisionF64 (the
	// default; "" means f64) or model.PrecisionF32, which promotes
	// ModelKind to its float32 counterpart (sequential runs use
	// KindRacy32) and streams half-width weights and features through the
	// f32 kernels. The returned Weights/Curve stay float64.
	Precision string

	// InitWeights warm-starts the model (e.g. from a checkpoint). Must
	// match the dataset dimensionality when non-nil.
	InitWeights []float64

	Seed      uint64
	EvalEvery int // evaluate every k epochs; default 1

	// Progress, when non-nil, receives every convergence-curve point as
	// it is recorded (the epoch-0 evaluation included), synchronously
	// from the training goroutine between epochs, with the evaluation
	// clock paused; it must be fast and must not block.
	Progress func(p metrics.Point)

	// Snapshots, when non-nil, receives versioned weight snapshots while
	// training runs: the initial model before the first update (epoch 0),
	// one version every PublishEvery completed epochs (Engine.PublishTo),
	// and — whenever the cadence missed it — the final weights, so the
	// store always ends on the result Train returns.
	Snapshots *snapshot.Store
	// PublishEvery is the Snapshots cadence in epochs; <= 0 selects 1.
	PublishEvery int

	// Instruments, when non-nil, receives per-epoch update counts and
	// throughput (EpochDone) and per-worker update-staleness histograms
	// fed from inside the update loop. Nil leaves the hot path untouched.
	Instruments *obs.TrainInstruments
}

func (c Config) withDefaults() Config {
	if c.StepDecay == 0 {
		c.StepDecay = 1
	}
	if !c.Algo.Async() {
		c.Threads = 1
	} else if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	c.EvalEvery = max(c.EvalEvery, 1)
	c.PublishEvery = max(c.PublishEvery, 1)
	return c
}

// DType is the storage width the run trains at: model.PrecisionF32 or
// model.PrecisionF64.
func (c Config) DType() string {
	if prec, _ := model.ParsePrecision(c.Precision); prec == model.PrecisionF32 || c.ModelKind.Is32() {
		return model.PrecisionF32
	}
	return model.PrecisionF64
}

func (c Config) validate(ds *dataset.Dataset) error {
	switch {
	case ds == nil || ds.N() == 0:
		return fmt.Errorf("core: empty dataset")
	case c.Epochs <= 0:
		return fmt.Errorf("core: Epochs must be positive, got %d", c.Epochs)
	case c.InitWeights != nil && len(c.InitWeights) != ds.Dim():
		return fmt.Errorf("core: InitWeights length %d != dataset dim %d", len(c.InitWeights), ds.Dim())
	}
	if _, err := model.ParsePrecision(c.Precision); err != nil {
		return err
	}
	for _, err := range []error{adaptive.CheckStep(c.Step), adaptive.CheckDecay(c.StepDecay),
		adaptive.CheckNonNegative("DCLambda", c.DCLambda),
		spec.Check(c.Algo.String(), spec.KindBatch, c.DCLambda > 0, c.Importance)} {
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// FromSpec compiles a validated spec into a batch Config. It validates
// nothing: spec.Spec.Validate has.
func FromSpec(s spec.Spec) Config {
	algo, _ := ParseAlgo(s.Algo)
	prec, _ := model.ParsePrecision(s.Precision)
	return Config{
		Algo: algo, Epochs: s.Epochs, Step: s.Step, StepDecay: s.StepDecay,
		Threads: s.Threads, Seed: s.Seed, EvalEvery: s.EvalEvery,
		Precision: prec, DCLambda: s.DCLambda,
	}
}

// Result is the outcome of a training run.
type Result struct {
	Algo      Algo
	Weights   []float64
	Curve     metrics.Curve
	TrainTime time.Duration // wall-clock spent optimizing (eval excluded)
	Epochs    int           // epochs completed: the point Weights and Iters reached
	Iters     int64
	Threads   int
}

// engine builds the configured algorithm's Engine over a fresh model:
// sequential runs store it as a plain slice, f32 runs at half width.
func (c Config) engine(ds *dataset.Dataset, obj objective.Objective) (*Engine, error) {
	kind := c.ModelKind
	if !c.Algo.Async() && !kind.Is32() {
		kind = model.KindRacy
	}
	if c.DType() == model.PrecisionF32 {
		kind = kind.As32()
	}
	m := model.New(kind, ds.Dim())
	is := ISOptions{Seed: c.Seed, Importance: c.Importance}
	switch c.Algo {
	case SGD, ASGD:
		return NewASGD(ds, obj, m, c.Threads, c.Seed)
	case ISSGD, ISASGD:
		return NewISASGDOpts(ds, obj, m, c.Threads, is)
	case SVRGSGD, SVRGASGD:
		return NewSVRG(ds, obj, m, c.Threads, c.Seed)
	}
	return nil, fmt.Errorf("core: unknown algorithm %v", c.Algo)
}

// Train runs the configured algorithm on (ds, obj) and returns the model
// and convergence curve. It drives epochs, measures training wall-clock
// with evaluation excluded, and records objective / RMSE / error rate
// per evaluated epoch. Cancelling ctx stops training between epochs and
// returns the partial result alongside ctx's error.
func Train(ctx context.Context, ds *dataset.Dataset, obj objective.Objective, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(ds); err != nil {
		return nil, err
	}
	eng, err := cfg.engine(ds, obj)
	if err != nil {
		return nil, err
	}
	if err := eng.SetDC(cfg.DCLambda); err != nil {
		return nil, err
	}
	if cfg.InitWeights != nil {
		eng.Load(cfg.InitWeights)
	}
	if cfg.Instruments != nil {
		eng.Instrument(cfg.Instruments)
	}
	if st := cfg.Snapshots; st != nil {
		// Stamp the storage precision before anything is published, so
		// serving readers can pick the f32 scoring path from the first
		// version; the epoch-0 version makes the store servable before
		// the first update and before the first Progress callback.
		if cfg.DType() == model.PrecisionF32 {
			st.SetDType(model.PrecisionF32)
		}
		eng.PublishTo(st, cfg.PublishEvery)
		st.Publish(0, 0, eng.Snapshot)
	}

	res := &Result{Algo: cfg.Algo, Threads: cfg.Threads}
	rec := metrics.NewRecorder()
	var sw metrics.Stopwatch
	w := eng.Snapshot(nil)
	record := func(epoch int) {
		rec.Add(epoch, res.Iters, sw.Elapsed(), metrics.Evaluate(ds, obj, w, 0))
		if cfg.Progress != nil {
			cfg.Progress(rec.Curve().Final())
		}
	}
	record(0)
	finish := func() {
		res.Weights, res.Curve, res.TrainTime = eng.Snapshot(nil), rec.Curve(), sw.Elapsed()
	}
	step := cfg.Step
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		if ctxErr := ctx.Err(); ctxErr != nil {
			finish()
			return res, fmt.Errorf("core: training cancelled at epoch %d: %w", epoch, ctxErr)
		}
		sw.Start()
		epochStart := time.Now()
		n := eng.RunEpoch(step)
		res.Iters += n
		res.Epochs = epoch
		cfg.Instruments.EpochDone(n, time.Since(epochStart))
		sw.Pause()
		step *= cfg.StepDecay
		if epoch%cfg.EvalEvery == 0 || epoch == cfg.Epochs {
			w = eng.Snapshot(w)
			record(epoch)
		}
	}
	finish()
	if cfg.Snapshots != nil && cfg.Epochs%cfg.PublishEvery != 0 {
		// The cadence missed the final epoch: publish the result weights
		// so the store ends on what Train returns.
		cfg.Snapshots.PublishCopy(cfg.Epochs, res.Iters, res.Weights)
	}
	if j := model.FirstNonFinite(res.Weights); j >= 0 {
		return res, fmt.Errorf("core: %v diverged: non-finite weight %g at coordinate %d (reduce Step)", cfg.Algo, res.Weights[j], j)
	}
	return res, nil
}
