// Command isasgd-train trains one model on a LibSVM file with any of the
// repository's algorithms and prints the convergence curve.
//
// Usage:
//
//	isasgd-train -data file.libsvm [flags]
//
//	-data path         LibSVM input (required)
//	-algo name         sgd|is-sgd|asgd|is-asgd|svrg-sgd|svrg-asgd|saga
//	                   (default "is-asgd")
//	-objective name    logistic-l1 | sqhinge-l2 | lsq-l2 (default logistic-l1)
//	-eta x             regularization strength (default 1e-4)
//	-epochs n          training epochs (default 15)
//	-step x            step size λ (default 0.5)
//	-decay x           per-epoch step decay (default 1.0)
//	-threads n         workers for async algorithms (default GOMAXPROCS)
//	-balance mode      auto|balance|shuffle|sorted|lpt (default auto)
//	-seed n            RNG seed (default 1)
//	-batch n           mini-batch size (default 1)
//	-precision p       f64 | f32 — f32 trains on float32 weights and
//	                   features (half the memory traffic; not available
//	                   for the SVRG/SAGA solvers) (default f64)
//	-adapt-c x         staleness-adaptive step scaling: each update runs
//	                   at step/(1+x·τ) where τ is its measured staleness
//	                   (Engine algorithms; 0 disables)
//	-staleness-bound n shed updates whose measured staleness exceeds n
//	                   (Engine algorithms; 0 disables)
//	-dc-lambda x       DC-ASGD delay compensation strength λ: updates gain
//	                   λ·g²·(w_now − w_epoch_base) (batch mode only;
//	                   0 disables)
//	-holdout x         held-out test fraction (default 0)
//	-model out.libsvm  write the learned weights as a one-line sparse row
//	-save-checkpoint p write a resumable checkpoint when training ends
//	-resume p          warm-start from a checkpoint
//	-version           print the build version and exit
//
// Streaming mode (-stream) trains online over the input in bounded
// memory instead of loading it: blocks of -block rows slide through a
// -window-block window, each block is shard-balanced across -threads
// workers, and sampling is importance-weighted (or uniform for
// -algo sgd/asgd) from a reservoir-backed online state. Requires -dim
// (a streaming model cannot grow). Additional flags:
//
//	-stream              enable streaming mode
//	-dim n               fixed model dimensionality (required)
//	-block n             rows per chunk (default 1024)
//	-window n            resident blocks (default 4)
//	-updates-per-block n update budget per chunk (default: block rows)
//	-reservoir n         per-worker reservoir capacity
//	-rebuild-every n     alias rebuild cadence (default once per block)
//	-importance mode     reservoir row weighting: bound (static Lipschitz
//	                     upper bound, the default) | loss (loss-feedback
//	                     EMA re-weighting; is-sgd/is-asgd)
//	-loss-beta x         loss-EMA observation weight for -importance loss
//
// -adapt-c and -staleness-bound also apply in streaming mode; shed
// update counts are printed after the run (and exported through the
// isasgd_train_updates_shed_total counter when instruments attach).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	isasgd "github.com/isasgd/isasgd"
	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/sparse"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "isasgd-train: %v\n", err)
		os.Exit(1)
	}
}

func parseBalance(s string) (isasgd.BalanceMode, error) {
	switch s {
	case "auto", "":
		return isasgd.BalanceAuto, nil
	case "balance":
		return isasgd.ForceBalance, nil
	case "shuffle":
		return isasgd.ForceShuffle, nil
	case "sorted":
		return isasgd.SortedOrder, nil
	case "lpt":
		return isasgd.LPTOrder, nil
	default:
		return balance.Auto, fmt.Errorf("unknown balance mode %q", s)
	}
}

func run() error {
	var (
		dataPath = flag.String("data", "", "LibSVM input file (required)")
		algoName = flag.String("algo", "is-asgd", "training algorithm")
		objName  = flag.String("objective", "logistic-l1", "objective function")
		eta      = flag.Float64("eta", 1e-4, "regularization strength")
		epochs   = flag.Int("epochs", 15, "training epochs")
		step     = flag.Float64("step", 0.5, "step size λ")
		decay    = flag.Float64("decay", 1.0, "per-epoch step decay")
		threads  = flag.Int("threads", runtime.GOMAXPROCS(0), "async worker count")
		balName  = flag.String("balance", "auto", "shard preparation mode")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		modelOut = flag.String("model", "", "write learned weights to this file")
		saveCkpt = flag.String("save-checkpoint", "", "write a resumable checkpoint to this file")
		resume   = flag.String("resume", "", "resume from a checkpoint file")
		holdout  = flag.Float64("holdout", 0, "held-out test fraction in [0,1); 0 trains on everything")
		batch    = flag.Int("batch", 1, "mini-batch size (Engine-based algorithms)")
		prec     = flag.String("precision", "f64", "training precision: f64 or f32")

		adaptC    = flag.Float64("adapt-c", 0, "staleness-adaptive step scaling 1/(1+c*tau) (0 disables)")
		staleness = flag.Int64("staleness-bound", 0, "shed updates with measured staleness > n (0 disables)")
		dcLambda  = flag.Float64("dc-lambda", 0, "DC-ASGD delay compensation strength (batch mode only; 0 disables)")

		streamMode   = flag.Bool("stream", false, "streaming mode: online training in bounded memory")
		dim          = flag.Int("dim", 0, "fixed model dimensionality (streaming; required)")
		block        = flag.Int("block", 0, "rows per streamed chunk (default 1024)")
		window       = flag.Int("window", 0, "resident blocks in the sliding window (default 4)")
		updPerBlock  = flag.Int("updates-per-block", 0, "update budget per chunk (default: block rows)")
		reservoir    = flag.Int("reservoir", 0, "per-worker reservoir capacity")
		rebuildEvery = flag.Int("rebuild-every", 0, "alias rebuild cadence in observations (default once per block)")
		importance   = flag.String("importance", "", "streaming row weighting: bound (default) | loss")
		lossBeta     = flag.Float64("loss-beta", 0, "loss-EMA observation weight for -importance loss (0 selects the default)")

		version = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("isasgd-train", obs.FullVersion())
		return nil
	}
	if *dataPath == "" {
		flag.Usage()
		return fmt.Errorf("missing -data")
	}
	if *streamMode {
		if *dcLambda != 0 {
			return fmt.Errorf("-dc-lambda applies to batch mode only (streaming updates have no retained base)")
		}
		return runStream(streamFlags{
			data: *dataPath, algo: *algoName, objective: *objName, eta: *eta,
			step: *step, decay: *decay, threads: *threads, balance: *balName,
			seed: *seed, dim: *dim, block: *block, window: *window,
			updatesPerBlock: *updPerBlock, reservoir: *reservoir,
			rebuildEvery: *rebuildEvery, modelOut: *modelOut,
			precision:  *prec,
			importance: *importance, lossBeta: *lossBeta,
			adaptC: *adaptC, stalenessBound: *staleness,
		})
	}
	if *importance != "" {
		return fmt.Errorf("-importance selects the streaming sampler weighting and requires -stream")
	}

	algo, err := isasgd.ParseAlgo(*algoName)
	if err != nil {
		return err
	}
	obj, err := parseObjectiveFlag(*objName, *eta)
	if err != nil {
		return err
	}
	bal, err := parseBalance(*balName)
	if err != nil {
		return err
	}

	ds, err := isasgd.LoadLibSVMFile(*dataPath, 0)
	if err != nil {
		return err
	}
	var test *isasgd.Dataset
	if *holdout > 0 {
		ds, test, err = ds.SplitTrainTest(*holdout, *seed)
		if err != nil {
			return err
		}
	}
	l := isasgd.Weights(ds, obj)
	st := isasgd.ComputeStats(ds, l)
	fmt.Printf("dataset %s: %d samples × %d features, density %.2e, ψ=%.3f, ρ=%.2e\n",
		ds.Name, st.N, st.Dim, st.Density, st.Psi, st.Rho)

	cfg := isasgd.Config{
		Algo: algo, Epochs: *epochs, Step: *step, StepDecay: *decay,
		Threads: *threads, Balance: bal, Seed: *seed, Batch: *batch,
		Precision: *prec,
		AdaptC:    *adaptC, StalenessBound: *staleness, DCLambda: *dcLambda,
	}
	if *resume != "" {
		ckpt, err := isasgd.LoadCheckpoint(*resume)
		if err != nil {
			return err
		}
		if ckpt.Dim != ds.Dim() {
			return fmt.Errorf("checkpoint dim %d != dataset dim %d", ckpt.Dim, ds.Dim())
		}
		if ckpt.Objective != obj.Name() {
			fmt.Printf("warning: checkpoint objective %q differs from %q\n", ckpt.Objective, obj.Name())
		}
		cfg.InitWeights = ckpt.Weights
		fmt.Printf("resumed from %s (epoch %d, %d updates)\n", *resume, ckpt.Epoch, ckpt.Iters)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := isasgd.Train(ctx, ds, obj, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("algorithm %s, %d threads, %d updates, train time %.3fs\n",
		res.Algo, res.Threads, res.Iters, res.TrainTime.Seconds())
	if *staleness > 0 {
		fmt.Printf("staleness bound %d: shed %d updates\n", *staleness, res.Shed)
	}
	if algo == isasgd.ISASGD {
		fmt.Printf("Algorithm 4: balanced=%v ρ=%.3e ζ=%.0e ψ=%.3f Φ-imbalance=%.4f\n",
			res.Decision.Balanced, res.Decision.Rho, res.Decision.Zeta,
			res.Decision.Psi, res.Decision.Imbalance)
	}
	fmt.Println(" epoch        iters       wall")
	for _, p := range res.Curve {
		fmt.Println(metrics.FormatPoint(p))
	}
	if test != nil {
		ev := isasgd.Evaluate(test, obj, res.Weights, *threads)
		fmt.Printf("held-out (%d samples): obj=%.6f rmse=%.6f err=%.5f\n",
			test.N(), ev.Obj, ev.RMSE, ev.ErrRate)
	}
	if *saveCkpt != "" {
		if err := isasgd.SaveCheckpoint(*saveCkpt, isasgd.CheckpointFromResult(res, obj, ds.Name, cfg)); err != nil {
			return err
		}
		fmt.Printf("wrote checkpoint to %s\n", *saveCkpt)
	}

	if *modelOut != "" {
		if err := writeModelFile(*modelOut, res.Weights); err != nil {
			return err
		}
	}
	return nil
}

// parseObjectiveFlag resolves the -objective flag, shared by the batch
// and streaming modes.
func parseObjectiveFlag(name string, eta float64) (isasgd.Objective, error) {
	switch name {
	case "logistic-l1":
		return isasgd.LogisticL1(eta), nil
	case "sqhinge-l2":
		return isasgd.SquaredHingeL2(eta), nil
	case "lsq-l2":
		return isasgd.LeastSquaresL2(eta), nil
	default:
		return nil, fmt.Errorf("unknown objective %q", name)
	}
}

// writeModelFile writes the learned weights as a one-line sparse LibSVM
// row (label 0), shared by the batch and streaming modes.
func writeModelFile(path string, weights []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	v, err := sparse.FromDense(weights)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "0"); err != nil {
		return err
	}
	for k, j := range v.Idx {
		if _, err := fmt.Fprintf(f, " %d:%g", j+1, v.Val[k]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(f); err != nil {
		return err
	}
	fmt.Printf("wrote model (%d non-zeros) to %s\n", v.NNZ(), path)
	return nil
}
