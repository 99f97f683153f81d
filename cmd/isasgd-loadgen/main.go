// Command isasgd-loadgen drives predict load against a serving fleet
// (an isasgd-serve origin and/or its replicas) and reports throughput,
// latency quantiles, shed rate and replication lag — the measurement
// half of the fleet's QPS-at-SLO story.
//
// Usage:
//
//	isasgd-loadgen [flags]
//
//	-targets urls       comma-separated base URLs load is spread across
//	                    round-robin (default http://127.0.0.1:8080)
//	-models names       comma-separated model names; request popularity
//	                    is zipf-distributed over the list in order,
//	                    first = hottest (required)
//	-zipf s             popularity exponent (0 = uniform; default 1.1)
//	-mode m             closed (workers send-wait-repeat; measures
//	                    capacity) or open (fixed-rate arrivals; measures
//	                    an offered load, exposes queueing collapse)
//	                    (default closed)
//	-concurrency n      workers (closed) or in-flight ceiling (open)
//	                    (default 8)
//	-rate qps           open-loop offered load, requests/second
//	-duration d         measured window (default 10s)
//	-warmup d           discarded ramp at the front (default 10% of
//	                    -duration)
//	-dim n              synthetic request dimensionality (default 2^18)
//	-nnz n              non-zeros per synthetic request (default 64)
//	-seed n             RNG seed for the request stream (default 1)
//	-slo-p99 d          p99 target; the report's met_slo says whether
//	                    accepted-request p99 stayed within it (0 skips)
//	-json file          also write the report as JSON ("-" for stdout)
//	-fail-on-errors     exit nonzero if any request failed (transport
//	                    error or unexpected status) — the CI smoke gate
//	-version            print the build version and exit
//
// Latency quantiles cover accepted (2xx) responses after warmup; 429
// sheds are reported as a rate. In open mode latency is measured from
// the request's scheduled arrival, so client-side queueing under
// overload is charged to the percentiles rather than hidden
// (coordinated omission).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/isasgd/isasgd/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "isasgd-loadgen: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("isasgd-loadgen", flag.ContinueOnError)
	var (
		targets     = fs.String("targets", "http://127.0.0.1:8080", "comma-separated base URLs")
		models      = fs.String("models", "", "comma-separated model names (zipf popularity in list order)")
		zipf        = fs.Float64("zipf", 1.1, "model-popularity zipf exponent (0 = uniform)")
		mode        = fs.String("mode", "closed", "closed | open")
		concurrency = fs.Int("concurrency", 8, "workers (closed) / in-flight ceiling (open)")
		rate        = fs.Float64("rate", 0, "open-loop offered load in requests/second")
		duration    = fs.Duration("duration", 10*time.Second, "measured window")
		warmup      = fs.Duration("warmup", 0, "discarded ramp (default 10% of -duration)")
		dim         = fs.Int("dim", 1<<18, "synthetic request dimensionality")
		nnz         = fs.Int("nnz", 64, "non-zeros per synthetic request")
		seed        = fs.Uint64("seed", 1, "request-stream RNG seed")
		sloP99      = fs.Duration("slo-p99", 0, "p99 latency target (0 skips the SLO judgment)")
		jsonPath    = fs.String("json", "", "write the report as JSON to this file (\"-\" for stdout)")
		failOnErrs  = fs.Bool("fail-on-errors", false, "exit nonzero if any request failed")
		version     = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, "isasgd-loadgen", obs.FullVersion())
		return nil
	}
	if *models == "" {
		return fmt.Errorf("-models is required (comma-separated model names)")
	}

	spec := LoadSpec{
		Targets:     splitList(*targets),
		Models:      splitList(*models),
		Zipf:        *zipf,
		Mode:        *mode,
		Concurrency: *concurrency,
		Rate:        *rate,
		Duration:    *duration,
		Warmup:      *warmup,
		Dim:         *dim,
		NNZ:         *nnz,
		Seed:        *seed,
		SLOP99:      *sloP99,
	}
	fmt.Fprintf(out, "isasgd-loadgen: %s loop, %d model(s) across %d target(s), %v window\n",
		spec.Mode, len(spec.Models), len(spec.Targets), *duration)
	rep, err := RunLoad(ctx, spec)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "sent %d  ok %d  shed %d (%.1f%%)  errors %d  lost %d\n",
		rep.Sent, rep.OK, rep.Shed, 100*rep.ShedRate, rep.Errors, rep.Lost)
	fmt.Fprintf(out, "qps %.0f  p50 %.2fms  p95 %.2fms  p99 %.2fms  max replica lag %.3fs\n",
		rep.QPS, rep.P50Ms, rep.P95Ms, rep.P99Ms, rep.MaxReplicaLagSeconds)
	if *sloP99 > 0 {
		verdict := "MET"
		if !rep.MetSLO {
			verdict = "MISSED"
		}
		fmt.Fprintf(out, "SLO p99 <= %v: %s\n", *sloP99, verdict)
	}

	if *jsonPath != "" {
		w := out
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := WriteLoadJSON(w, rep); err != nil {
			return err
		}
		if *jsonPath != "-" {
			fmt.Fprintf(out, "wrote %s\n", *jsonPath)
		}
	}

	if *failOnErrs && rep.Errors > 0 {
		return fmt.Errorf("%d request(s) failed", rep.Errors)
	}
	if rep.OK == 0 {
		return fmt.Errorf("no request succeeded — are the targets serving the named models?")
	}
	return nil
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var list []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			list = append(list, part)
		}
	}
	return list
}
