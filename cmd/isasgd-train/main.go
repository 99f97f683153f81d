// Command isasgd-train trains one model on a LibSVM file with any of the
// repository's algorithms and prints the convergence curve.
//
// Usage:
//
//	isasgd-train -data file.libsvm [flags]
//
// The training knobs are the one training spec's (internal/spec; the
// serve job spec's JSON names with '_' → '-'):
//
//	-algo name           sgd|is-sgd|asgd|is-asgd|svrg-sgd|svrg-asgd
//	                     (default "is-asgd")
//	-objective name      logistic-l1 | sqhinge-l2 | lsq-l2 (default logistic-l1)
//	-eta x               regularization strength (default 1e-4)
//	-epochs n            training epochs (default 15; batch mode)
//	-step x              step size λ, finite and > 0 (default 0.5)
//	-step-decay x        per-epoch (per-block) step decay in (0, 1] (default 1)
//	-threads n           workers for async algorithms (default GOMAXPROCS)
//	-seed n              RNG seed (default 1)
//	-precision p         f64 | f32 — f32 trains on float32 weights and
//	                     features (half the memory traffic) (default f64)
//	-dc-lambda x         DC-ASGD delay compensation strength λ: updates gain
//	                     λ·g²·(w_now − w_epoch_base) (batch mode only;
//	                     0 disables)
//
// Run flags:
//
//	-data path           LibSVM input (required)
//	-holdout x           held-out test fraction (default 0)
//	-model out.libsvm    write the learned weights as a one-line sparse row
//	-save-checkpoint p   write a resumable checkpoint when training ends: one
//	                     version frame at the run's -precision
//	                     (internal/checkpoint)
//	-resume p            warm-start from a checkpoint of the data's dim
//	-version             print the build version and exit
//
// Streaming mode (-stream) trains online over the input in bounded
// memory instead of loading it: blocks of -block-size rows slide through
// a -window-blocks window, each block is shuffled into shards across
// -threads workers, and sampling is importance-weighted (or uniform for
// -algo sgd/asgd) from a reservoir-backed online state. Requires -dim (a
// streaming model cannot grow). Its knobs:
//
//	-stream                enable streaming mode
//	-dim n                 fixed model dimensionality (required)
//	-block-size n          rows per chunk (default 1024)
//	-window-blocks n       resident blocks (default 4)
//	-updates-per-block n   update budget per chunk (default: block rows)
//	-reservoir n           per-worker reservoir capacity
//	-rebuild-every n       alias rebuild cadence (default once per block)
//	-importance mode       reservoir row weighting: bound (static Lipschitz
//	                       upper bound, the default) | grad (the gradient
//	                       norms |l'(z)|·‖x‖ the updates record; is-sgd/is-asgd)
//
// Every update applies at full step, as the paper's Algorithm 4 does: the
// coordinator's -adapt-c and -staleness-bound are isasgd-cluster flags,
// not this command's. A knob the mode does not have (-epochs or
// -dc-lambda with -stream, a streaming knob without it) is an error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	isasgd "github.com/isasgd/isasgd"
	"github.com/isasgd/isasgd/internal/core"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/sparse"
	"github.com/isasgd/isasgd/internal/spec"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "isasgd-train: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("isasgd-train", flag.ContinueOnError)
	var s spec.Spec
	s.Flags(fs, spec.Train)
	var (
		dataPath   = fs.String("data", "", "LibSVM input file (required)")
		modelOut   = fs.String("model", "", "write learned weights to this file")
		saveCkpt   = fs.String("save-checkpoint", "", "write a resumable checkpoint to this file")
		resume     = fs.String("resume", "", "resume from a checkpoint file")
		holdout    = fs.Float64("holdout", 0, "held-out test fraction in [0,1); 0 trains on everything")
		streamMode = fs.Bool("stream", false, "streaming mode: online training in bounded memory")
		version    = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, "isasgd-train", obs.FullVersion())
		return nil
	}
	if *dataPath == "" {
		fs.Usage()
		return fmt.Errorf("missing -data")
	}
	kind := spec.KindBatch
	if *streamMode {
		kind = spec.KindStream
	}
	s.SetKind(kind, fs)
	if err := s.Validate(); err != nil {
		return err
	}
	if *streamMode {
		return runStream(ctx, out, s, *dataPath, *modelOut)
	}

	obj, _ := objective.Parse(s.Objective, s.Eta)
	ds, err := isasgd.LoadLibSVMFile(*dataPath, 0)
	if err != nil {
		return err
	}
	var test *isasgd.Dataset
	if *holdout > 0 {
		ds, test, err = ds.SplitTrainTest(*holdout, s.Seed)
		if err != nil {
			return err
		}
	}
	l := isasgd.Weights(ds, obj)
	st := isasgd.ComputeStats(ds, l)
	fmt.Fprintf(out, "dataset %s: %d samples × %d features, density %.2e, ψ=%.3f, ρ=%.2e\n",
		ds.Name, st.N, st.Dim, st.Density, st.Psi, st.Rho)

	cfg := core.FromSpec(s)
	if *resume != "" {
		ckpt, err := isasgd.LoadCheckpoint(*resume)
		if err != nil {
			return err
		}
		if len(ckpt.Weights) != ds.Dim() {
			return fmt.Errorf("checkpoint dim %d != dataset dim %d", len(ckpt.Weights), ds.Dim())
		}
		if ckpt.Objective != obj.Name() {
			fmt.Fprintf(out, "warning: checkpoint objective %q differs from %q\n", ckpt.Objective, obj.Name())
		}
		cfg.InitWeights = ckpt.Weights
		fmt.Fprintf(out, "resumed from %s (epoch %d, %d updates)\n", *resume, ckpt.Epoch, ckpt.Iters)
	}

	res, err := isasgd.Train(ctx, ds, obj, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "algorithm %s, %d threads, %d updates, train time %.3fs\n",
		res.Algo, res.Threads, res.Iters, res.TrainTime.Seconds())
	fmt.Fprintln(out, " epoch        iters       wall")
	for _, p := range res.Curve {
		fmt.Fprintln(out, metrics.FormatPoint(p))
	}
	if test != nil {
		ev := isasgd.Evaluate(test, obj, res.Weights, s.Threads)
		fmt.Fprintf(out, "held-out (%d samples): obj=%.6f loss=%.6f reg=%.6f rmse=%.6f err=%.5f\n",
			test.N(), ev.Obj, ev.Loss, ev.Reg, ev.RMSE, ev.ErrRate)
	}
	if *saveCkpt != "" {
		if err := isasgd.SaveCheckpoint(*saveCkpt, isasgd.CheckpointFromResult(res, obj, ds.Name, cfg)); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote checkpoint to %s\n", *saveCkpt)
	}
	if *modelOut != "" {
		return writeModelFile(out, *modelOut, res.Weights)
	}
	return nil
}

// writeModelFile writes the learned weights as a one-line sparse LibSVM
// row (label 0), shared by the batch and streaming modes.
func writeModelFile(out io.Writer, path string, weights []float64) error {
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
	fmt.Fprintf(out, "wrote model (%d non-zeros) to %s\n", v.NNZ(), path)
	return nil
}
