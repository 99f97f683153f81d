// Package solver exposes the six training algorithms of the paper's
// evaluation behind one Train call:
//
//	SGD        sequential uniform-sampling baseline (Eq. 3)
//	IS-SGD     sequential importance sampling (Algorithm 2)
//	ASGD       lock-free asynchronous SGD (Hogwild; Recht et al. 2011)
//	IS-ASGD    the paper's contribution (Algorithm 4)
//	SVRG-SGD   sequential SVRG (Johnson & Zhang 2013)
//	SVRG-ASGD  asynchronous SVRG (Algorithm 1; strict J. Reddi et al.
//	           form with the dense µ added every iteration, plus the
//	           public-code "skip-µ" approximation as an ablation)
//	SAGA       sequential SAGA (Defazio et al. 2014), an extension
//
// Train drives epochs, measures training wall-clock with evaluation time
// excluded (the paper's absolute-convergence axis), and records a
// convergence curve of objective / RMSE / error rate per epoch.
package solver

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/core"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/spec"
)

// Algo identifies a training algorithm.
type Algo int

// The supported algorithms.
const (
	SGD Algo = iota
	ISSGD
	ASGD
	ISASGD
	SVRGSGD
	SVRGASGD
	SAGA
)

// String returns the canonical lowercase name.
func (a Algo) String() string {
	switch a {
	case SGD:
		return "sgd"
	case ISSGD:
		return "is-sgd"
	case ASGD:
		return "asgd"
	case ISASGD:
		return "is-asgd"
	case SVRGSGD:
		return "svrg-sgd"
	case SVRGASGD:
		return "svrg-asgd"
	case SAGA:
		return "saga"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// ParseAlgo resolves a name (case-insensitive, with or without dashes)
// to an Algo through the spec's capability table.
func ParseAlgo(s string) (Algo, error) {
	c, err := spec.LookupAlgo(s)
	if err != nil {
		return 0, fmt.Errorf("solver: %w", err)
	}
	for a := SGD; a <= SAGA; a++ {
		if c.Name == a.String() {
			return a, nil
		}
	}
	return 0, fmt.Errorf("solver: algorithm %q has no solver", c.Name)
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

	// Importance-sampling options (IS-SGD / IS-ASGD).
	Balance balance.Mode // shard preparation; default Auto (Algorithm 4)
	Zeta    float64      // ρ threshold; default balance.DefaultZeta
	// ShuffleSequence enables the paper's Section-4.2 approximation:
	// generate each worker's sample sequence once and reshuffle it per
	// epoch instead of regenerating it. Cheaper by an O(n) draw per
	// epoch but freezes the first draw's sampling noise into the
	// effective objective (see the sequence ablation). Default off:
	// sequences are regenerated every epoch.
	ShuffleSequence bool
	// PartialBias mixes the importance distribution with uniform,
	// p_i = ½(1/n + L_i/ΣL) (Needell et al. 2014), bounding the step
	// correction 1/(n·p_i) below 2.
	PartialBias bool
	// Importance selects the sampling weights of IS-SGD and IS-ASGD: ""
	// or "bound" keeps the static Lipschitz bounds of Eq. 12; "grad"
	// reweighs every epoch by the Eq.-11 gradient norms |ℓ'(z_i)|·‖x_i‖
	// the updates themselves recorded — the optimal weights the paper
	// deems impractical to refresh per iteration, read off the epoch's
	// own updates (see core.ISOptions.Importance). Rejected for the
	// uniform algorithms.
	Importance string

	// Adaptive-update options (Engine-based algorithms — SGD, IS-SGD,
	// ASGD, IS-ASGD — at either precision; rejected for SVRG/SAGA).
	// AdaptC > 0 attenuates each update's step by 1/(1+AdaptC·τ) on its
	// measured staleness; StalenessBound > 0 sheds updates whose τ
	// exceeds it; DCLambda > 0 applies DC-ASGD delay compensation
	// λ·d²·(w_now − w_base) against an epoch-start base snapshot. Zero values disable each knob; with all
	// three zero the plain hot loop runs untouched.
	AdaptC         float64
	StalenessBound int64
	DCLambda       float64

	// SVRG options.
	SkipMu bool // public-code approximation: apply n·µ once per epoch

	ModelKind model.Kind // async model storage; default KindAtomic

	// Precision selects the training data-path width for the Engine-based
	// algorithms: model.PrecisionF64 (the default; "" means f64) trains on
	// float64 weights and features, model.PrecisionF32 promotes ModelKind
	// to its float32 counterpart (KindAtomic → KindAtomic32, KindRacy →
	// KindRacy32; sequential runs use KindRacy32) and streams half-width
	// weights and features through the f32 kernels. The returned
	// Weights/Curve stay float64 — conversion happens only at the model
	// boundary. Rejected for the SVRG/SAGA solvers, whose dense
	// correction passes are float64-only.
	Precision string

	// InitWeights warm-starts the model (e.g. from a checkpoint). Must
	// match the dataset dimensionality when non-nil.
	InitWeights []float64

	Seed        uint64
	EvalEvery   int // evaluate every k epochs; default 1
	EvalThreads int // default GOMAXPROCS

	// Progress, when non-nil, receives every convergence-curve point as
	// it is recorded (the epoch-0 initial evaluation included), letting
	// long-running callers — e.g. the serving subsystem's job manager —
	// observe objective and iteration counts incrementally instead of
	// waiting for Train to return. It is invoked synchronously from the
	// training goroutine between epochs, so it must be fast and must not
	// block; the evaluation clock is already paused when it runs.
	Progress func(p metrics.Point)

	// Snapshots, when non-nil, receives versioned weight snapshots while
	// training runs: the initial model before the first update (epoch 0),
	// one version every PublishEvery completed epochs (the Engine-based
	// algorithms publish from inside RunEpoch via Engine.PublishTo; the
	// SVRG/SAGA solvers from the epoch loop), and — whenever the cadence
	// missed it — the final weights, so the store always ends on the
	// result Train returns. Serving consumers (internal/serve) read the
	// store lock-free while this run is still training.
	Snapshots *snapshot.Store
	// PublishEvery is the Snapshots cadence in epochs; <= 0 selects 1.
	PublishEvery int

	// Instruments, when non-nil, receives training telemetry: per-epoch
	// update counts and throughput (EpochDone), and — for the
	// Engine-based algorithms — per-worker update-staleness histograms
	// fed from inside the hot loop. Nil leaves the hot path untouched.
	Instruments *obs.TrainInstruments
}

func (c Config) withDefaults() Config {
	if c.StepDecay == 0 {
		c.StepDecay = 1
	}
	if c.Threads <= 0 {
		if c.Algo.Async() {
			c.Threads = runtime.GOMAXPROCS(0)
		} else {
			c.Threads = 1
		}
	}
	if !c.Algo.Async() {
		c.Threads = 1
	}
	if c.Zeta <= 0 {
		c.Zeta = balance.DefaultZeta
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	if c.EvalThreads <= 0 {
		c.EvalThreads = runtime.GOMAXPROCS(0)
	}
	if c.PublishEvery <= 0 {
		c.PublishEvery = 1
	}
	return c
}

func (c Config) validate(ds *dataset.Dataset) error {
	switch {
	case ds == nil || ds.N() == 0:
		return fmt.Errorf("solver: empty dataset")
	case c.Epochs <= 0:
		return fmt.Errorf("solver: Epochs must be positive, got %d", c.Epochs)
	case c.InitWeights != nil && len(c.InitWeights) != ds.Dim():
		return fmt.Errorf("solver: InitWeights length %d != dataset dim %d", len(c.InitWeights), ds.Dim())
	case c.StalenessBound < 0:
		return fmt.Errorf("solver: StalenessBound must be non-negative, got %d", c.StalenessBound)
	}
	if err := adaptive.CheckStep(c.Step); err != nil {
		return fmt.Errorf("solver: %w", err)
	}
	if err := adaptive.CheckDecay(c.StepDecay); err != nil {
		return fmt.Errorf("solver: %w", err)
	}
	prec, err := model.ParsePrecision(c.Precision)
	if err != nil {
		return err
	}
	if c.ModelKind.Is32() {
		prec = model.PrecisionF32
	}
	pol := adaptive.Policy{AdaptC: c.AdaptC, StalenessBound: c.StalenessBound, DCLambda: c.DCLambda}
	if err := pol.Validate(); err != nil {
		return fmt.Errorf("solver: %w", err)
	}
	if err := spec.Check(c.Algo.String(), spec.KindBatch, prec, pol.Enabled(), c.Importance); err != nil {
		return fmt.Errorf("solver: %w", err)
	}
	return nil
}

// FromSpec compiles a validated spec into a batch Config. It validates
// nothing: spec.Spec.Validate has.
func FromSpec(s spec.Spec) Config {
	algo, _ := ParseAlgo(s.Algo)
	mode, _ := balance.ParseMode(s.Balance)
	prec, _ := model.ParsePrecision(s.Precision)
	return Config{
		Algo: algo, Epochs: s.Epochs, Step: s.Step, StepDecay: s.StepDecay,
		Threads: s.Threads, Balance: mode, Seed: s.Seed, EvalEvery: s.EvalEvery,
		Precision: prec,
		AdaptC:    s.AdaptC, StalenessBound: s.StalenessBound, DCLambda: s.DCLambda,
	}
}

// Result is the outcome of a training run.
type Result struct {
	Algo      Algo
	Weights   []float64
	Curve     metrics.Curve
	Decision  balance.Decision // IS-ASGD's Algorithm-4 branch; zero otherwise
	TrainTime time.Duration    // wall-clock spent optimizing (eval excluded)
	Epochs    int              // epochs completed: the point Weights and Iters reached
	Iters     int64
	Threads   int
	Shed      int64 // updates dropped by the adaptive staleness bound (0 unless StalenessBound > 0)
}

// algorithm is the per-epoch contract Train drives.
type algorithm interface {
	// RunEpoch performs one epoch at the given step size and returns the
	// number of updates applied.
	RunEpoch(step float64) int64
	// Snapshot copies the current model into dst.
	Snapshot(dst []float64) []float64
}

// Train runs the configured algorithm on (ds, obj) and returns the model
// and convergence curve. Cancelling ctx stops training between epochs and
// returns the partial result alongside ctx's error.
func Train(ctx context.Context, ds *dataset.Dataset, obj objective.Objective, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(ds); err != nil {
		return nil, err
	}

	var (
		alg algorithm
		eng *core.Engine // set for the Engine-based algorithms
		dec balance.Decision
		err error
	)
	mdl := func() model.Params {
		kind := cfg.ModelKind
		if !cfg.Algo.Async() && !kind.Is32() {
			kind = model.KindRacy // single goroutine: plain slice
		}
		if prec, _ := model.ParsePrecision(cfg.Precision); prec == model.PrecisionF32 {
			kind = kind.As32()
		}
		return model.New(kind, ds.Dim())
	}()

	switch cfg.Algo {
	case SGD:
		eng, err = core.NewSGD(ds, obj, mdl, cfg.Seed)
		if eng != nil {
			alg = eng
		}
	case ISSGD:
		eng, err = core.NewISASGDOpts(ds, obj, mdl, 1, core.ISOptions{
			Mode: balance.ForceShuffle, Seed: cfg.Seed,
			ShuffleSeq: cfg.ShuffleSequence, PartialBias: cfg.PartialBias,
			Importance: cfg.Importance,
		})
		if eng != nil {
			dec = eng.Decision()
			alg = eng
		}
	case ASGD:
		eng, err = core.NewASGD(ds, obj, mdl, cfg.Threads, cfg.Seed)
		if eng != nil {
			alg = eng
		}
	case ISASGD:
		eng, err = core.NewISASGDOpts(ds, obj, mdl, cfg.Threads, core.ISOptions{
			Mode: cfg.Balance, Zeta: cfg.Zeta, Seed: cfg.Seed,
			ShuffleSeq: cfg.ShuffleSequence, PartialBias: cfg.PartialBias,
			Importance: cfg.Importance,
		})
		if eng != nil {
			dec = eng.Decision()
			alg = eng
		}
	case SVRGSGD:
		alg, err = newSVRG(ds, obj, mdl, 1, cfg.SkipMu, cfg.Seed)
	case SVRGASGD:
		alg, err = newSVRG(ds, obj, mdl, cfg.Threads, cfg.SkipMu, cfg.Seed)
	case SAGA:
		alg, err = newSAGA(ds, obj, mdl, cfg.Seed)
	default:
		err = fmt.Errorf("solver: unknown algorithm %v", cfg.Algo)
	}
	if err != nil {
		return nil, err
	}
	if eng != nil {
		pol := adaptive.Policy{AdaptC: cfg.AdaptC, StalenessBound: cfg.StalenessBound, DCLambda: cfg.DCLambda}
		if pol.Enabled() {
			if aErr := eng.SetAdaptive(pol); aErr != nil {
				return nil, fmt.Errorf("solver: %w", aErr)
			}
		}
	}
	if cfg.InitWeights != nil {
		mdl.Load(cfg.InitWeights)
	}
	if cfg.Instruments != nil && eng != nil {
		eng.Instrument(cfg.Instruments)
	}
	if cfg.Snapshots != nil {
		// Stamp the storage precision before anything is published, so
		// serving readers can pick the lossless half-bandwidth f32 scoring
		// path the moment the first version lands.
		if prec, _ := model.ParsePrecision(cfg.Precision); prec == model.PrecisionF32 || cfg.ModelKind.Is32() {
			cfg.Snapshots.SetDType(model.PrecisionF32)
		}
		if eng != nil {
			eng.PublishTo(cfg.Snapshots, cfg.PublishEvery)
		}
		// Epoch-0 version: the store is servable before the first update
		// (warm starts publish their InitWeights), and strictly before the
		// first Progress callback fires.
		cfg.Snapshots.Publish(0, 0, alg.Snapshot)
	}

	res := &Result{Algo: cfg.Algo, Decision: dec, Threads: cfg.Threads}
	rec := metrics.NewRecorder()
	var sw metrics.Stopwatch
	record := func(epoch int, iters int64, wall time.Duration, e metrics.Eval) {
		rec.Add(epoch, iters, wall, e)
		if cfg.Progress != nil {
			cfg.Progress(rec.Curve().Final())
		}
	}

	w := alg.Snapshot(nil)
	record(0, 0, 0, metrics.Evaluate(ds, obj, w, cfg.EvalThreads))

	step := cfg.Step
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		if ctxErr := ctx.Err(); ctxErr != nil {
			res.Weights = alg.Snapshot(w)
			res.Curve = rec.Curve()
			res.TrainTime = sw.Elapsed()
			if eng != nil {
				res.Shed = eng.Shed()
			}
			return res, fmt.Errorf("solver: training cancelled at epoch %d: %w", epoch, ctxErr)
		}
		sw.Start()
		epochStart := time.Now()
		n := alg.RunEpoch(step)
		res.Iters += n
		res.Epochs = epoch
		cfg.Instruments.EpochDone(n, time.Since(epochStart))
		if cfg.Snapshots != nil && eng == nil && epoch%cfg.PublishEvery == 0 {
			// The Engine publishes from inside RunEpoch; the SVRG/SAGA
			// solvers publish here at the same cadence.
			cfg.Snapshots.Publish(epoch, res.Iters, alg.Snapshot)
		}
		sw.Pause()
		step *= cfg.StepDecay
		if epoch%cfg.EvalEvery == 0 || epoch == cfg.Epochs {
			w = alg.Snapshot(w)
			record(epoch, res.Iters, sw.Elapsed(), metrics.Evaluate(ds, obj, w, cfg.EvalThreads))
		}
	}
	res.Weights = alg.Snapshot(nil)
	res.Curve = rec.Curve()
	res.TrainTime = sw.Elapsed()
	if eng != nil {
		res.Shed = eng.Shed()
	}
	if cfg.Snapshots != nil && cfg.Epochs%cfg.PublishEvery != 0 {
		// The cadence missed the final epoch: publish the result weights
		// so the store ends on what Train returns.
		cfg.Snapshots.PublishCopy(cfg.Epochs, res.Iters, res.Weights)
	}
	if err := checkFinite(res.Weights); err != nil {
		return res, fmt.Errorf("solver: %v diverged: %w (reduce Step)", cfg.Algo, err)
	}
	return res, nil
}

func checkFinite(w []float64) error {
	if j := model.FirstNonFinite(w); j >= 0 {
		return fmt.Errorf("non-finite weight %g at coordinate %d", w[j], j)
	}
	return nil
}
