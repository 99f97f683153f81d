// Command isasgd-cluster runs one node of the distributed IS-ASGD
// parameter-server star: a coordinator owning the global model, or a
// worker training importance-sampled rounds on its shard of a seeded
// shuffle and exchanging sparse updates over HTTP.
//
// Usage:
//
//	isasgd-cluster -role coordinator [flags]
//	isasgd-cluster -role worker -coordinator http://host:port -id N -workers K [flags]
//
// The training knobs are the one training spec's (internal/spec; the
// serve job spec's JSON names with '_' → '-'). Common ones:
//
//	-dataset name         synthetic corpus preset: small | news20s | urls |
//	                      kddas | kddbs, or news20 | url | kdda | kddb
//	                      (default small); every node must agree
//	-scale f              preset size multiplier in (0, 1] (default 1)
//	-objective name       logistic-l1 | sqhinge-l2 | lsq-l2
//	-eta f                regularization strength (default 1e-4)
//	-seed n               corpus and shard-plan seed; must agree cluster-wide
//
// Run flags common to both roles:
//
//	-data path            LibSVM file to train on instead of a preset;
//	                      every node must load the identical file
//	-log-level level      debug | info | warn | error
//	-version              print the build version and exit
//
// Coordinator knobs and flags:
//
//	-staleness-bound n    shed pushes with measured staleness > n
//	                      (0 or -1 admits everything; default 64)
//	-adapt-c f            attenuate each admitted push by 1/(1+f·τ)
//	                      where τ is its measured staleness (0 disables)
//	-dc-lambda f          DC-ASGD delay compensation strength: each delta
//	                      coordinate d becomes d − λ·d²·(w_now − w_base)
//	                      against the retained base version (0 disables)
//	-eval-every n         evaluate every n applied pushes (default 4)
//	-addr host:port       listen address (default :9090)
//	-target-loss f        stop when the evaluated mean data loss (without
//	                      the regularizer) reaches f
//	-max-updates n        stop after n cumulative worker updates
//	-state path           checkpoint file (internal/checkpoint: seq, pushes
//	                      applied as the epoch, updates as the iters):
//	                      restored on start if present, written on
//	                      shutdown and completion ("" disables)
//	-exit-on-done         exit 0 once the run converges and every worker
//	                      has acknowledged completion
//	-linger d             with -exit-on-done, max wait for worker
//	                      acknowledgements (default 15s)
//	-read-timeout d       full-request read deadline (default 1m)
//	-idle-timeout d       keep-alive idle deadline (default 2m)
//
// Worker knobs and flags:
//
//	-threads t            local Hogwild width (default 1)
//	-step f               SGD step size, finite and > 0 (default 0.5)
//	-step-decay f         multiply the step after each push round, in
//	                      (0, 1] (default 1, no decay) — long runs with
//	                      constant steps oscillate once the star converges
//	-coordinator url      coordinator root URL (required)
//	-id n                 this worker's shard index, 0-based (required)
//	-workers k            total worker count (required, must agree)
//	-local-epochs e       shard passes per push round (default 1)
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

	"github.com/isasgd/isasgd/internal/checkpoint"
	"github.com/isasgd/isasgd/internal/cluster"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/httpx"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/spec"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "isasgd-cluster: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("isasgd-cluster", flag.ContinueOnError)
	var s spec.Spec
	s.Flags(fs, spec.Cluster)
	var (
		role    = fs.String("role", "", "coordinator | worker")
		data    = fs.String("data", "", "LibSVM file instead of a preset (identical on every node)")
		logLvl  = fs.String("log-level", "info", "debug | info | warn | error")
		version = fs.Bool("version", false, "print the build version and exit")

		addr       = fs.String("addr", ":9090", "coordinator listen address")
		targetLoss = fs.Float64("target-loss", 0, "stop when the evaluated mean data loss reaches this (0 disables)")
		maxUpdates = fs.Int64("max-updates", 0, "stop after n cumulative worker updates (0 disables)")
		statePath  = fs.String("state", "", "coordinator checkpoint file (\"\" disables)")
		exitDone   = fs.Bool("exit-on-done", false, "coordinator exits 0 once the run converges")
		linger     = fs.Duration("linger", 15*time.Second, "with -exit-on-done, max wait for workers to acknowledge completion")
		readTO     = fs.Duration("read-timeout", time.Minute, "full-request read deadline")
		idleTO     = fs.Duration("idle-timeout", httpx.DefaultIdle, "keep-alive idle deadline")

		coordURL = fs.String("coordinator", "", "coordinator root URL (worker)")
		id       = fs.Int("id", -1, "worker shard index, 0-based")
		workers  = fs.Int("workers", 0, "total worker count")
		localEp  = fs.Int("local-epochs", 1, "shard passes per push round")
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

	s.SetKind(spec.KindCluster, fs)
	if err := s.Validate(); err != nil {
		return err
	}
	ds, err := loadCorpus(*data, s)
	if err != nil {
		return err
	}

	switch *role {
	case "coordinator":
		cfg := cluster.CoordinatorFromSpec(s, ds)
		cfg.TargetLoss, cfg.MaxUpdates = *targetLoss, *maxUpdates
		cfg.Log = logger
		return runCoordinator(ctx, out, cfg, coordinatorOpts{
			addr: *addr, statePath: *statePath, exitDone: *exitDone, linger: *linger,
			readTO: *readTO, idleTO: *idleTO,
		})
	case "worker":
		if *coordURL == "" {
			return errors.New("worker needs -coordinator")
		}
		cfg := cluster.WorkerFromSpec(s, ds)
		cfg.ID, cfg.Workers, cfg.Coordinator = *id, *workers, *coordURL
		cfg.LocalEpochs, cfg.Wire, cfg.Log = *localEp, *wire, logger
		w, err := cluster.NewWorker(cfg)
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

// coordinatorOpts are the coordinator's process settings: listener,
// state file and shutdown.
type coordinatorOpts struct {
	addr      string
	statePath string
	exitDone  bool
	linger    time.Duration
	readTO    time.Duration
	idleTO    time.Duration
}

func runCoordinator(ctx context.Context, out io.Writer, cfg cluster.CoordinatorConfig, o coordinatorOpts) error {
	logger := cfg.Log
	reg := obs.NewRegistry()
	cfg.Reg = reg
	if o.statePath != "" {
		// The state file is one checkpoint: the version's seq, the applied
		// pushes as its epoch and the worker updates as its iters.
		ck, err := checkpoint.LoadFile(o.statePath)
		switch {
		case err == nil:
			cfg.Init, cfg.InitSeq, cfg.InitEpoch, cfg.InitIters = ck.Weights, ck.Seq, ck.Epoch, ck.Iters
			fmt.Fprintf(out, "restored state from %s at seq %d (%d updates)\n",
				o.statePath, ck.Seq, ck.Iters)
		case !errors.Is(err, os.ErrNotExist):
			return fmt.Errorf("state file %s: %w", o.statePath, err)
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
		ln.Addr(), cfg.Dim, cfg.StalenessBound, cfg.TargetLoss)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	save := func() {
		if o.statePath == "" {
			return
		}
		seq, applied, updates, w := c.Checkpoint()
		if err := checkpoint.SaveFile(o.statePath, &checkpoint.State{Objective: cfg.Obj.Name(),
			Dataset: cfg.EvalData.Name, Seq: seq, Epoch: int(applied), Iters: updates, Weights: w}); err != nil {
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

// loadCorpus returns the deterministic shared corpus: a LibSVM file or
// the spec's synthetic preset. Every node must resolve the same corpus.
func loadCorpus(path string, s spec.Spec) (*dataset.Dataset, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.ParseLibSVM(f, path, 0)
	}
	cfg, err := dataset.Preset(s.Dataset, s.Scale, s.Seed)
	if err != nil {
		return nil, err
	}
	return dataset.Synthesize(cfg)
}
