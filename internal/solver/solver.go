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
	"math"
	"runtime"
	"strings"
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
// to an Algo.
func ParseAlgo(s string) (Algo, error) {
	key := strings.ToLower(strings.ReplaceAll(strings.TrimSpace(s), "_", "-"))
	for _, a := range []Algo{SGD, ISSGD, ASGD, ISASGD, SVRGSGD, SVRGASGD, SAGA} {
		if key == a.String() {
			return a, nil
		}
	}
	return 0, fmt.Errorf("solver: unknown algorithm %q", s)
}

// Async reports whether the algorithm runs concurrent workers.
func (a Algo) Async() bool { return a == ASGD || a == ISASGD || a == SVRGASGD }

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
	// AdaptEvery, when positive, re-estimates the sampling distribution
	// every k epochs from the current per-sample gradient norms — the
	// Eq.-11 optimal weights p_i ∝ ‖∇f_i(w)‖ that the paper deems
	// impractical to refresh per iteration, applied at epoch
	// granularity instead (extension; applies to ISSGD and ISASGD).
	AdaptEvery int

	// Adaptive-update options (Engine-based algorithms — SGD, IS-SGD,
	// ASGD, IS-ASGD — with single-sample steps, at either precision;
	// rejected for SVRG/SAGA and minibatch runs). AdaptC > 0 attenuates
	// each update's step by 1/(1+AdaptC·τ) on its measured staleness;
	// StalenessBound > 0 sheds updates whose τ exceeds it; DCLambda > 0
	// applies DC-ASGD delay compensation λ·d²·(w_now − w_base) against an
	// epoch-start base snapshot. Zero values disable each knob; with all
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

	// Batch selects mini-batch updates of the given size for the
	// Engine-based algorithms (SGD, IS-SGD, ASGD, IS-ASGD): each step
	// averages the scaled gradients of Batch i.i.d. draws (Csiba &
	// Richtárik 2016). 0 or 1 means single-sample updates. Rejected for
	// the SVRG/SAGA solvers.
	Batch int

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
	case c.Step <= 0 || math.IsNaN(c.Step) || math.IsInf(c.Step, 0):
		return fmt.Errorf("solver: Step must be positive and finite, got %g", c.Step)
	case c.StepDecay <= 0 || c.StepDecay > 1:
		return fmt.Errorf("solver: StepDecay must be in (0, 1], got %g", c.StepDecay)
	case c.Batch < 0:
		return fmt.Errorf("solver: Batch must be non-negative, got %d", c.Batch)
	case c.Batch > 1 && (c.Algo == SVRGSGD || c.Algo == SVRGASGD || c.Algo == SAGA):
		return fmt.Errorf("solver: Batch is not supported for %v", c.Algo)
	case c.InitWeights != nil && len(c.InitWeights) != ds.Dim():
		return fmt.Errorf("solver: InitWeights length %d != dataset dim %d", len(c.InitWeights), ds.Dim())
	case c.AdaptEvery < 0:
		return fmt.Errorf("solver: AdaptEvery must be non-negative, got %d", c.AdaptEvery)
	}
	prec, err := model.ParsePrecision(c.Precision)
	if err != nil {
		return err
	}
	f32 := prec == model.PrecisionF32 || c.ModelKind.Is32()
	if f32 && (c.Algo == SVRGSGD || c.Algo == SVRGASGD || c.Algo == SAGA) {
		return fmt.Errorf("solver: f32 precision is not supported for %v (dense correction passes are float64-only)", c.Algo)
	}
	pol := adaptive.Policy{AdaptC: c.AdaptC, StalenessBound: c.StalenessBound, DCLambda: c.DCLambda}
	if err := pol.Validate(); err != nil {
		return fmt.Errorf("solver: %w", err)
	}
	if c.StalenessBound < 0 {
		return fmt.Errorf("solver: StalenessBound must be non-negative, got %d", c.StalenessBound)
	}
	if pol.Enabled() {
		switch {
		case c.Algo == SVRGSGD || c.Algo == SVRGASGD || c.Algo == SAGA:
			return fmt.Errorf("solver: adaptive updates are not supported for %v", c.Algo)
		case c.Batch > 1:
			return fmt.Errorf("solver: adaptive updates require single-sample steps, got Batch %d", c.Batch)
		}
	}
	return nil
}

// Result is the outcome of a training run.
type Result struct {
	Algo      Algo
	Weights   []float64
	Curve     metrics.Curve
	Decision  balance.Decision // IS-ASGD's Algorithm-4 branch; zero otherwise
	TrainTime time.Duration    // wall-clock spent optimizing (eval excluded)
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
		eng *core.Engine // set for the IS constructions (adaptive reweighting)
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
	if eng != nil && cfg.Batch > 1 {
		if bErr := eng.SetBatch(cfg.Batch); bErr != nil {
			return nil, fmt.Errorf("solver: %w", bErr)
		}
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
		cfg.Instruments.EpochDone(n, time.Since(epochStart))
		if cfg.Snapshots != nil && eng == nil && epoch%cfg.PublishEvery == 0 {
			// The Engine publishes from inside RunEpoch; the SVRG/SAGA
			// solvers publish here at the same cadence.
			cfg.Snapshots.Publish(epoch, res.Iters, alg.Snapshot)
		}
		if eng != nil && (cfg.Algo == ISSGD || cfg.Algo == ISASGD) &&
			cfg.AdaptEvery > 0 && epoch%cfg.AdaptEvery == 0 && epoch != cfg.Epochs {
			// Periodic re-estimation of the Eq.-11 optimal distribution.
			// The estimation pass counts as training time.
			w = alg.Snapshot(w)
			if rwErr := eng.Reweight(gradNormWeights(ds, obj, w, cfg.EvalThreads)); rwErr != nil {
				sw.Pause()
				return res, rwErr
			}
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
