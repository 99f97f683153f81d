// Command isasgd-cluster runs one node of the distributed IS-ASGD
// parameter-server star: a coordinator owning the global model, or a
// worker training importance-sampled rounds on its deterministic
// balance-assigned shard and exchanging sparse updates over HTTP.
//
// Usage:
//
//	isasgd-cluster -role coordinator [flags]
//	isasgd-cluster -role worker -coordinator http://host:port -id N -workers K [flags]
//
// Common flags:
//
//	-dataset name         synthetic corpus preset: small | news20
//	                      (default small); every node must agree
//	-data path            LibSVM file to train on instead of a preset;
//	                      every node must load the identical file
//	-scale f              preset size multiplier (default 1)
//	-objective name       logistic-l1 | sqhinge-l2 | lsq-l2
//	-eta f                regularization strength (default 1e-4)
//	-seed n               corpus and shard-plan seed; must agree cluster-wide
//	-log-level level      debug | info | warn | error
//	-version              print the build version and exit
//
// Coordinator flags:
//
//	-addr host:port       listen address (default :9090)
//	-staleness-bound n    shed pushes with measured staleness > n
//	                      (-1 admits everything; default 64)
//	-adapt-c f            attenuate each admitted push by 1/(1+f·τ)
//	                      where τ is its measured staleness (0 disables)
//	-dc-lambda f          DC-ASGD delay compensation strength: each delta
//	                      coordinate d becomes d − λ·d²·(w_now − w_base)
//	                      against the retained base version (0 disables)
//	-target-loss f        stop when the evaluated objective reaches f
//	-max-updates n        stop after n cumulative worker updates
//	-eval-every n         evaluate every n applied pushes (default 4)
//	-state path           checkpoint file: restored on start if present,
//	                      written on shutdown and completion ("" disables)
//	-exit-on-done         exit 0 once the run converges and every worker
//	                      has acknowledged completion
//	-linger d             with -exit-on-done, max wait for worker
//	                      acknowledgements (default 15s)
//	-read-timeout d       full-request read deadline (default 1m)
//	-idle-timeout d       keep-alive idle deadline (default 2m)
//
// Worker flags:
//
//	-coordinator url      coordinator root URL (required)
//	-id n                 this worker's shard index, 0-based (required)
//	-workers k            total worker count (required, must agree)
//	-threads t            local Hogwild width (default 1)
//	-local-epochs e       shard passes per push round (default 1)
//	-step f               SGD step size (default 0.5)
//	-step-decay f         multiply the step after each push round, in
//	                      (0, 1] (default 1, no decay) — long runs with
//	                      constant steps oscillate once the star converges
//	-mode name            shard preparation: auto | balance | shuffle |
//	                      sorted | lpt (default auto)
//	-wire name            width of the values in the binary pull and push
//	                      frames: f64 (exact, default) | f32 (half the
//	                      value bytes, ~1e-7 relative narrowing)
//
// The coordinator serves GET /v1/cluster/pull, POST /v1/cluster/push,
// GET /v1/cluster/stats and GET /metrics (isasgd_cluster_* families).
// Workers exit 0 when the coordinator reports the run done. See
// internal/cluster for the protocol, and internal/cluster/wire.go for
// the frame that carries weights and deltas.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/cluster"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/httpx"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "isasgd-cluster: %v\n", err)
		os.Exit(1)
	}
}

// checkpointFile is the coordinator's -state format.
type checkpointFile struct {
	Seq     uint64    `json:"seq"`
	Applied int64     `json:"applied"`
	Updates int64     `json:"updates"`
	Weights []float64 `json:"weights"`
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("isasgd-cluster", flag.ContinueOnError)
	var (
		role    = fs.String("role", "", "coordinator | worker")
		preset  = fs.String("dataset", "small", "synthetic corpus preset: small | news20")
		data    = fs.String("data", "", "LibSVM file instead of a preset (identical on every node)")
		scale   = fs.Float64("scale", 1, "preset size multiplier")
		objName = fs.String("objective", "logistic-l1", "logistic-l1 | sqhinge-l2 | lsq-l2")
		eta     = fs.Float64("eta", 1e-4, "regularization strength")
		seed    = fs.Uint64("seed", 1, "corpus and shard-plan seed (must agree cluster-wide)")
		logLvl  = fs.String("log-level", "info", "debug | info | warn | error")
		version = fs.Bool("version", false, "print the build version and exit")

		addr       = fs.String("addr", ":9090", "coordinator listen address")
		bound      = fs.Int64("staleness-bound", 64, "shed pushes with staleness > n (-1 admits everything)")
		adaptC     = fs.Float64("adapt-c", 0, "attenuate admitted pushes by 1/(1+c*tau) (0 disables)")
		dcLambda   = fs.Float64("dc-lambda", 0, "DC-ASGD delay compensation strength (0 disables)")
		targetLoss = fs.Float64("target-loss", 0, "stop when the evaluated objective reaches this (0 disables)")
		maxUpdates = fs.Int64("max-updates", 0, "stop after n cumulative worker updates (0 disables)")
		evalEvery  = fs.Int("eval-every", 4, "evaluate every n applied pushes")
		statePath  = fs.String("state", "", "coordinator checkpoint file (\"\" disables)")
		exitDone   = fs.Bool("exit-on-done", false, "coordinator exits 0 once the run converges")
		linger     = fs.Duration("linger", 15*time.Second, "with -exit-on-done, max wait for workers to acknowledge completion")
		readTO     = fs.Duration("read-timeout", time.Minute, "full-request read deadline")
		idleTO     = fs.Duration("idle-timeout", httpx.DefaultIdle, "keep-alive idle deadline")

		coordURL = fs.String("coordinator", "", "coordinator root URL (worker)")
		id       = fs.Int("id", -1, "worker shard index, 0-based")
		workers  = fs.Int("workers", 0, "total worker count")
		threads  = fs.Int("threads", 1, "local Hogwild width")
		localEp  = fs.Int("local-epochs", 1, "shard passes per push round")
		step     = fs.Float64("step", 0.5, "SGD step size")
		decay    = fs.Float64("step-decay", 1, "multiply step after each push round, in (0, 1]")
		modeName = fs.String("mode", "auto", "shard preparation: auto | balance | shuffle | sorted | lpt")
		wire     = fs.String("wire", "f64", "value width in pull/push frames: f64 | f32")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, "isasgd-cluster", obs.FullVersion())
		return nil
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLvl)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLvl, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	obj, err := parseObjective(*objName, *eta)
	if err != nil {
		return err
	}
	ds, err := loadCorpus(*data, *preset, *scale, *seed)
	if err != nil {
		return err
	}

	switch *role {
	case "coordinator":
		return runCoordinator(ctx, out, logger, coordinatorOpts{
			ds: ds, obj: obj, addr: *addr, bound: *bound,
			adaptC: *adaptC, dcLambda: *dcLambda,
			targetLoss: *targetLoss, maxUpdates: *maxUpdates, evalEvery: *evalEvery,
			statePath: *statePath, exitDone: *exitDone, linger: *linger,
			readTO: *readTO, idleTO: *idleTO,
		})
	case "worker":
		if *coordURL == "" {
			return errors.New("worker needs -coordinator")
		}
		mode, err := parseMode(*modeName)
		if err != nil {
			return err
		}
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			ID: *id, Workers: *workers, Coordinator: *coordURL,
			Data: ds, Obj: obj, Mode: mode, Seed: *seed,
			Threads: *threads, LocalEpochs: *localEp, Step: *step,
			StepDecay: *decay, Wire: *wire, Log: logger,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "worker %d/%d: shard %d rows, coordinator %s\n",
			*id, *workers, w.ShardRows(), *coordURL)
		if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		st := w.Stats()
		fmt.Fprintf(out, "worker %d done: rounds=%d applied=%d shed=%d retries=%d updates=%d\n",
			*id, st.Rounds, st.Applied, st.Shed, st.Retries, st.Updates)
		return nil
	default:
		return fmt.Errorf("bad -role %q: want coordinator or worker", *role)
	}
}

type coordinatorOpts struct {
	ds         *dataset.Dataset
	obj        objective.Objective
	addr       string
	bound      int64
	adaptC     float64
	dcLambda   float64
	targetLoss float64
	maxUpdates int64
	evalEvery  int
	statePath  string
	exitDone   bool
	linger     time.Duration
	readTO     time.Duration
	idleTO     time.Duration
}

func runCoordinator(ctx context.Context, out io.Writer, logger *slog.Logger, o coordinatorOpts) error {
	reg := obs.NewRegistry()
	cfg := cluster.CoordinatorConfig{
		Dim: o.ds.Dim(), StalenessBound: o.bound,
		AdaptC: o.adaptC, DCLambda: o.dcLambda,
		EvalData: o.ds, Obj: o.obj, EvalEvery: o.evalEvery,
		TargetLoss: o.targetLoss, MaxUpdates: o.maxUpdates,
		Log: logger, Reg: reg,
	}
	if o.statePath != "" {
		if ck, err := readCheckpoint(o.statePath); err != nil {
			return err
		} else if ck != nil {
			cfg.Init = ck.Weights
			cfg.InitSeq = ck.Seq
			cfg.InitEpoch = int(ck.Applied)
			cfg.InitIters = ck.Updates
			fmt.Fprintf(out, "restored state from %s at seq %d (%d updates)\n",
				o.statePath, ck.Seq, ck.Updates)
		}
	}
	c, err := cluster.NewCoordinator(cfg)
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/cluster/", c.Handler())
	mux.Handle("/metrics", reg.Handler())
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	srv := httpx.NewServer(mux, httpx.Timeouts{Read: o.readTO, Idle: o.idleTO})
	fmt.Fprintf(out, "coordinator listening on http://%s (dim=%d bound=%d target=%g)\n",
		ln.Addr(), o.ds.Dim(), o.bound, o.targetLoss)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	save := func() {
		if o.statePath == "" {
			return
		}
		seq, applied, updates, w := c.Checkpoint()
		if err := writeCheckpoint(o.statePath, checkpointFile{
			Seq: seq, Applied: applied, Updates: updates, Weights: w}); err != nil {
			logger.Error("checkpoint write failed", "path", o.statePath, "error", err)
		} else {
			fmt.Fprintf(out, "state saved to %s at seq %d\n", o.statePath, seq)
		}
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	case <-c.Done():
		st := c.Stats()
		fmt.Fprintf(out, "run done: loss=%g reached=%v pushes=%d shed=%d updates=%d max_tau=%d\n",
			st.Loss, st.Reached, st.Applied, st.Shed, st.Updates, st.MaxTau)
		if !o.exitDone {
			// Stay up so late workers learn Done and stats stay scrapable.
			<-ctx.Done()
		} else {
			// Exit only after every worker has seen Done (or the linger
			// expires): stopping earlier strands workers mid-round with
			// connection-refused on their next RPC.
			select {
			case <-c.DoneAcked():
			case <-time.After(o.linger):
			case <-ctx.Done():
			}
		}
	}
	save()
	grace, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(grace); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = srv.Close()
	}
	fmt.Fprintln(out, "coordinator shutdown complete")
	return nil
}

func readCheckpoint(path string) (*checkpointFile, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ck checkpointFile
	if err := json.Unmarshal(raw, &ck); err != nil {
		return nil, fmt.Errorf("state file %s: %w", path, err)
	}
	return &ck, nil
}

func writeCheckpoint(path string, ck checkpointFile) error {
	raw, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadCorpus returns the deterministic shared corpus: a LibSVM file or
// a synthetic preset. Every node must resolve the same corpus.
func loadCorpus(path, preset string, scale float64, seed uint64) (*dataset.Dataset, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.ParseLibSVM(f, path, 0)
	}
	switch preset {
	case "small":
		return dataset.Synthesize(dataset.Small(seed))
	case "news20":
		return dataset.Synthesize(dataset.News20Like(scale, seed))
	default:
		return nil, fmt.Errorf("bad -dataset %q: want small or news20", preset)
	}
}

func parseObjective(name string, eta float64) (objective.Objective, error) {
	switch name {
	case "logistic-l1":
		return objective.LogisticL1{Eta: eta}, nil
	case "sqhinge-l2":
		return objective.SquaredHingeL2{Lambda: eta}, nil
	case "lsq-l2":
		return objective.LeastSquaresL2{Eta: eta}, nil
	default:
		return nil, fmt.Errorf("bad -objective %q: want logistic-l1, sqhinge-l2 or lsq-l2", name)
	}
}

func parseMode(name string) (balance.Mode, error) {
	switch name {
	case "auto":
		return balance.Auto, nil
	case "balance":
		return balance.ForceBalance, nil
	case "shuffle":
		return balance.ForceShuffle, nil
	case "sorted":
		return balance.Sorted, nil
	case "lpt":
		return balance.LPT, nil
	default:
		return 0, fmt.Errorf("bad -mode %q", name)
	}
}
