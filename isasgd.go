package isasgd

import (
	"context"
	"io"
	"os"

	"github.com/isasgd/isasgd/internal/checkpoint"
	"github.com/isasgd/isasgd/internal/conflict"
	"github.com/isasgd/isasgd/internal/core"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/experiments"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/xrand"
)

func newRand(seed uint64) *xrand.Rand { return xrand.New(seed) }

// Core types, re-exported from the implementation packages.
type (
	// Dataset is a labeled sparse training set.
	Dataset = dataset.Dataset
	// SynthConfig describes a synthetic dataset.
	SynthConfig = dataset.SynthConfig
	// Stats are the Table-1 dataset statistics (density, ψ, ρ, ...).
	Stats = dataset.Stats
	// Objective is a generalized linear objective.
	Objective = objective.Objective
	// Config controls a training run.
	Config = core.Config
	// Result is a training outcome: weights, curve, timings.
	Result = core.Result
	// Algo selects a training algorithm.
	Algo = core.Algo
	// Curve is a recorded convergence curve.
	Curve = metrics.Curve
	// Point is one convergence-curve record.
	Point = metrics.Point
	// Eval is a full-dataset evaluation (objective, RMSE, error rate).
	Eval = metrics.Eval
	// ModelKind selects atomic (race-free) or racy (true Hogwild) model
	// storage for asynchronous solvers.
	ModelKind = model.Kind
	// TheoryParams are the constants of the paper's Section-3 bounds.
	TheoryParams = conflict.Params
	// ExperimentRunner regenerates the paper's tables and figures.
	ExperimentRunner = experiments.Runner
	// ExperimentScale sizes the experiment harness (quick/standard/full).
	ExperimentScale = experiments.Scale
	// Checkpoint is a persisted weight version (names, counters, width
	// and weights) for resuming long runs.
	Checkpoint = checkpoint.State
)

// Training algorithms.
const (
	// SGD is the sequential uniform-sampling baseline.
	SGD = core.SGD
	// ISSGD is sequential importance-sampled SGD (Algorithm 2).
	ISSGD = core.ISSGD
	// ASGD is lock-free asynchronous SGD (Hogwild).
	ASGD = core.ASGD
	// ISASGD is the paper's contribution (Algorithm 4).
	ISASGD = core.ISASGD
	// SVRGSGD is sequential stochastic variance-reduced gradient, in
	// its sparse form (core.NewSVRG).
	SVRGSGD = core.SVRGSGD
	// SVRGASGD is asynchronous SVRG (Algorithm 1), in its sparse form.
	SVRGASGD = core.SVRGASGD
)

// Model kinds (Config.ModelKind).
const (
	// ModelAtomic uses CAS updates; race-free under the Go memory model.
	ModelAtomic = model.KindAtomic
	// ModelRacy uses plain writes — the paper's true Hogwild scheme.
	ModelRacy = model.KindRacy
	// ModelAtomic32 is ModelAtomic over float32 bit patterns.
	ModelAtomic32 = model.KindAtomic32
	// ModelRacy32 is ModelRacy at float32 width — half the memory traffic.
	ModelRacy32 = model.KindRacy32
)

// Precision values (Config.Precision): PrecisionF64 trains on float64
// (the default), PrecisionF32 streams float32 weights and features
// through the half-width kernels.
const (
	PrecisionF64 = model.PrecisionF64
	PrecisionF32 = model.PrecisionF32
)

// Train runs the configured algorithm on (ds, obj); see core.Train.
func Train(ctx context.Context, ds *Dataset, obj Objective, cfg Config) (*Result, error) {
	return core.Train(ctx, ds, obj, cfg)
}

// ParseAlgo resolves an algorithm name ("is-asgd", "svrg-sgd", ...).
func ParseAlgo(s string) (Algo, error) { return core.ParseAlgo(s) }

// Evaluate computes objective, RMSE and error rate of weights w on ds
// with the given parallelism (<= 0 means GOMAXPROCS).
func Evaluate(ds *Dataset, obj Objective, w []float64, workers int) Eval {
	return metrics.Evaluate(ds, obj, w, workers)
}

// LogisticL1 returns the paper's evaluation objective: binary
// cross-entropy with an L1 penalty of strength eta.
func LogisticL1(eta float64) Objective { return objective.LogisticL1{Eta: eta} }

// SquaredHingeL2 returns the L2-regularized squared-hinge SVM objective
// of the paper's Section 2.2.
func SquaredHingeL2(lambda float64) Objective { return objective.SquaredHingeL2{Lambda: lambda} }

// LeastSquaresL2 returns ridge regression; with eta = 0, IS-SGD on it is
// the randomized Kaczmarz method.
func LeastSquaresL2(eta float64) Objective { return objective.LeastSquaresL2{Eta: eta} }

// Weights returns the per-sample importance weights L_i of every row.
func Weights(ds *Dataset, obj Objective) []float64 { return objective.Weights(ds.X, obj) }

// ComputeStats derives the Table-1 statistics from a dataset and its
// importance weights.
func ComputeStats(ds *Dataset, l []float64) Stats { return dataset.ComputeStats(ds, l) }

// Synthesize generates a synthetic dataset; see SynthConfig.
func Synthesize(cfg SynthConfig) (*Dataset, error) { return dataset.Synthesize(cfg) }

// Synthetic dataset presets reproducing the paper's Table-1 scale
// signatures. scale ∈ (0, 1] shrinks N and Dim proportionally.
func News20Like(scale float64, seed uint64) SynthConfig { return dataset.News20Like(scale, seed) }

// URLLike is the ICML-URL analog preset.
func URLLike(scale float64, seed uint64) SynthConfig { return dataset.URLLike(scale, seed) }

// KDDALike is the KDD2010-Algebra analog preset.
func KDDALike(scale float64, seed uint64) SynthConfig { return dataset.KDDALike(scale, seed) }

// KDDBLike is the KDD2010-Bridge analog preset.
func KDDBLike(scale float64, seed uint64) SynthConfig { return dataset.KDDBLike(scale, seed) }

// SmallConfig is a quick, well-conditioned preset for demos and tests.
func SmallConfig(seed uint64) SynthConfig { return dataset.Small(seed) }

// Presets returns the four paper-analog configurations in Table-1 order.
func Presets(scale float64, seed uint64) []SynthConfig { return dataset.Presets(scale, seed) }

// LoadLibSVM parses the LibSVM text format from r. minDim forces a
// minimum dimensionality (0 infers it from the data).
func LoadLibSVM(r io.Reader, name string, minDim int) (*Dataset, error) {
	return dataset.ParseLibSVM(r, name, minDim)
}

// LoadLibSVMFile parses a LibSVM file from disk.
func LoadLibSVMFile(path string, minDim int) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ParseLibSVM(f, path, minDim)
}

// SaveLibSVM writes ds to w in LibSVM text format.
func SaveLibSVM(w io.Writer, ds *Dataset) error { return dataset.WriteLibSVM(w, ds) }

// ConflictDegree estimates the average degree Δ̄ of the dataset's
// conflict graph by Monte-Carlo over the given number of sampled pairs
// (Section 3); seed makes it deterministic.
func ConflictDegree(ds *Dataset, pairs int, seed uint64) float64 {
	return conflict.AverageDegreeMC(ds, pairs, newRand(seed))
}

// SaveCheckpoint atomically writes a training checkpoint to path.
func SaveCheckpoint(path string, st *Checkpoint) error { return checkpoint.SaveFile(path, st) }

// LoadCheckpoint reads a training checkpoint from path.
func LoadCheckpoint(path string) (*Checkpoint, error) { return checkpoint.LoadFile(path) }

// CheckpointFromResult packages a training result as a Checkpoint.
func CheckpointFromResult(res *Result, obj Objective, datasetName string, cfg Config) *Checkpoint {
	return &checkpoint.State{
		Algo:      res.Algo.String(),
		Objective: obj.Name(),
		Dataset:   datasetName,
		Epoch:     res.Curve.Final().Epoch,
		Iters:     res.Iters,
		DType:     cfg.DType(),
		Weights:   res.Weights,
	}
}

// NewExperimentRunner builds a harness that regenerates the paper's
// tables and figures, printing to out. scaleName is quick, standard or
// full.
func NewExperimentRunner(out io.Writer, scaleName string, seed uint64) (*ExperimentRunner, error) {
	scale, err := experiments.ScaleByName(scaleName)
	if err != nil {
		return nil, err
	}
	return experiments.NewRunner(out, scale, seed), nil
}
