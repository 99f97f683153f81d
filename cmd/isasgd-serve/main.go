// Command isasgd-serve runs the training-job and prediction service: an
// HTTP API that trains models asynchronously on a bounded worker pool
// and serves predictions from a hot-swappable model registry.
//
// Usage:
//
//	isasgd-serve [flags]
//
//	-addr host:port       listen address (default :8080)
//	-pool n               max concurrently running training jobs
//	                      (default GOMAXPROCS)
//	-checkpoint-dir path  persist finished models as <model>.ckpt and
//	                      restore them on startup ("" disables); a file
//	                      is one version frame at the model's width
//	                      (internal/checkpoint)
//	-stream-dir path      allow file-fed streaming jobs (JobSpec kind
//	                      "stream" with a path) to read LibSVM files
//	                      under this directory ("" rejects them; upload
//	                      bodies via POST /v1/jobs/stream always work)
//	-publish-every n      publish live weight snapshots every n epochs
//	                      (batch jobs) or blocks (streaming jobs) while
//	                      training, so models are predictable — marked
//	                      "live": true — before their job finishes
//	                      (default 1; 0 publishes only at completion)
//	-precision p          default training precision (f64 | f32) applied
//	                      to job specs that omit "precision"; f32 trains
//	                      half-width weights and serves them through the
//	                      half-bandwidth float32 scoring path ("" keeps
//	                      the library default, f64)
//	-shutdown-timeout d   grace period for draining jobs on SIGINT/
//	                      SIGTERM (default 30s)
//	-log-level level      structured-log threshold: debug | info | warn |
//	                      error (default info); logs go to stderr as
//	                      key=value lines with request/job trace ids
//	-debug-addr host:port opt-in profiling listener serving
//	                      /debug/pprof/*, /debug/trace?sec=N and a second
//	                      /metrics ("" disables; keep it off the public
//	                      interface)
//	-read-timeout d       full-request read deadline on both listeners
//	                      (default 0 = unlimited, because streaming job
//	                      uploads legitimately take minutes; headers are
//	                      always bounded separately at 10s)
//	-idle-timeout d       keep-alive idle-connection deadline (default 2m;
//	                      negative disables)
//	-origin url           replica mode: mirror every model of the origin
//	                      server at this base URL and serve them
//	                      read-only — mutating endpoints answer 403,
//	                      predictions and model listings work locally,
//	                      and /v1/models rows report replication lag
//	-version              print the build version and exit
//
// On SIGINT or SIGTERM the server stops accepting requests, cancels
// running jobs (core.Train returns between epochs), checkpoints their
// partial progress, and exits once the pool drains or the grace period
// expires. See the package comment of internal/serve for the endpoint
// list and README.md for a curl quickstart.
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
	"runtime"
	"syscall"
	"time"

	"github.com/isasgd/isasgd/internal/httpx"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "isasgd-serve: %v\n", err)
		os.Exit(1)
	}
}

// run is main minus signal wiring so tests can drive the full lifecycle
// with a cancellable context. It blocks until ctx is cancelled, then
// shuts down gracefully: HTTP first, then the job pool (which
// checkpoints in-flight jobs as it cancels them).
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("isasgd-serve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		pool        = fs.Int("pool", runtime.GOMAXPROCS(0), "max concurrent training jobs")
		ckptDir     = fs.String("checkpoint-dir", "", "model checkpoint directory (\"\" disables persistence)")
		streamDir   = fs.String("stream-dir", "", "directory file-fed streaming jobs may read (\"\" rejects them)")
		pubEvery    = fs.Int("publish-every", 1, "live-snapshot cadence in epochs/blocks (0 publishes only at completion)")
		precision   = fs.String("precision", "", "default training precision for job specs that omit it: f64 | f32")
		graceperiod = fs.Duration("shutdown-timeout", 30*time.Second, "graceful-shutdown grace period")
		logLevel    = fs.String("log-level", "info", "structured-log threshold: debug | info | warn | error")
		debugAddr   = fs.String("debug-addr", "", "profiling listener address (\"\" disables /debug/pprof)")
		readTO      = fs.Duration("read-timeout", 0, "full-request read deadline (0 = unlimited; headers are always bounded)")
		idleTO      = fs.Duration("idle-timeout", httpx.DefaultIdle, "keep-alive idle-connection deadline (negative disables)")
		origin      = fs.String("origin", "", "replica mode: mirror this origin server's models and serve them read-only")
		version     = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, "isasgd-serve", obs.FullVersion())
		return nil
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
	}
	mgr := serve.NewManager(serve.NewRegistry(), *pool, *ckptDir)
	mgr.SetLogger(logger)
	mgr.SetPublishEvery(*pubEvery)
	if *precision != "" {
		if err := mgr.SetDefaultPrecision(*precision); err != nil {
			return fmt.Errorf("bad -precision %q: %w", *precision, err)
		}
	}
	if *streamDir != "" {
		mgr.SetStreamRoot(*streamDir)
	}
	if *ckptDir != "" {
		n, skipped, err := mgr.Restore()
		if err != nil {
			return err
		}
		for _, p := range skipped {
			fmt.Fprintf(out, "warning: skipping unreadable checkpoint %s\n", p)
		}
		if n > 0 {
			fmt.Fprintf(out, "restored %d model(s) from %s\n", n, *ckptDir)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Both listeners get slowloris-hardened timeouts: a bounded header
	// read and an idle keep-alive deadline, always. The full-request read
	// deadline stays opt-in because streaming job uploads train while the
	// body is still arriving; write deadlines stay off for long-running
	// responses (/debug/trace, large model downloads).
	timeouts := httpx.Timeouts{Read: *readTO, Idle: *idleTO}
	opts := serve.ServerOptions{ReadOnly: *origin != ""}
	srv := httpx.NewServer(serve.NewServerOpts(mgr, opts), timeouts)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// Replica mode: mirror the origin's models until shutdown. The
	// replicator owns its goroutine; ctx cancellation (the same signal
	// that drains HTTP) stops it, and replDone gates the final exit so
	// pullers are never killed mid-apply.
	replDone := make(chan struct{})
	if *origin != "" {
		repl, err := serve.NewReplicator(serve.ReplicatorConfig{
			Origin:   *origin,
			Registry: mgr.Registry(),
			Log:      logger,
		})
		if err != nil {
			srv.Close() //nolint:errcheck
			return err
		}
		fmt.Fprintf(out, "replica mode: mirroring %s (writes disabled)\n", *origin)
		go func() {
			defer close(replDone)
			repl.Run(ctx) //nolint:errcheck // nil on ctx cancel
		}()
	} else {
		close(replDone)
	}

	// The profiling listener is opt-in and separate from the API address,
	// so pprof and on-demand execution traces are never reachable through
	// the public interface. Its failures are reported but do not take the
	// service down.
	var dbgSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		dbgSrv = httpx.NewServer(obs.DebugMux(mgr.Obs(), logger), timeouts)
		fmt.Fprintf(out, "debug listener on http://%s (/debug/pprof, /debug/trace, /metrics)\n", dln.Addr())
		go func() {
			if err := dbgSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "error", err)
			}
		}()
	}
	// Announced last, so a caller that waits for this line has seen
	// every startup line before it.
	fmt.Fprintf(out, "listening on http://%s (pool=%d)\n", ln.Addr(), *pool)

	select {
	case err := <-errc:
		return err // listener failed before any shutdown request
	case <-ctx.Done():
	}

	fmt.Fprintln(out, "shutting down: draining HTTP, cancelling jobs")
	grace, cancel := context.WithTimeout(context.Background(), *graceperiod)
	defer cancel()
	<-replDone
	if dbgSrv != nil {
		_ = dbgSrv.Close()
	}
	httpErr := srv.Shutdown(grace)
	if errors.Is(httpErr, context.DeadlineExceeded) {
		httpErr = srv.Close()
	}
	if err := mgr.Shutdown(grace); err != nil {
		return err
	}
	if httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed) {
		return httpErr
	}
	fmt.Fprintln(out, "shutdown complete")
	return nil
}
