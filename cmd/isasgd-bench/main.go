// Command isasgd-bench regenerates the tables and figures of the
// IS-ASGD paper's evaluation (Section 4) on synthetic dataset analogs.
// Every training run but the SVRG skip-µ ablation runs on the
// deterministic delayed executor, so the report counts epochs and
// updates and repeats byte for byte at a seed, on any machine and at
// any GOMAXPROCS. Figure 1 is a count of touched coordinates. Time is
// not measured here: `bash bench/run.sh` is the benchmark (its setup_s
// and core.is_overhead are the IS overhead; see bench/README.md), so
// the paper's wall-clock Figure 4 has no counterpart. The SVRG-ASGD
// arm of the News20 panel waits until SVRG runs on core's update loop.
//
// Usage:
//
//	isasgd-bench [flags]
//
//	-experiment list    comma-separated subset of:
//	                    table1,fig1,fig2,fig3,fig5,summary,theory,
//	                    ablations,psisweep,tausweep,all
//	                    (default "all"); any other name is an error
//	-scale name         quick | standard | full (default "standard")
//	-seed n             RNG seed (default 1)
//	-csv dir            also export convergence curves as CSV into dir
//	-version            print the build version and exit
//
// fig3, fig5 and summary share the same training runs; requesting any
// of them performs the full sweep once and prints all three.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	"github.com/isasgd/isasgd/internal/experiments"
	"github.com/isasgd/isasgd/internal/obs"
)

// experimentNames is every value -experiment accepts, in run order.
var experimentNames = append(slices.Clone(experiments.Names), "all")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "isasgd-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("isasgd-bench", flag.ContinueOnError)
	var (
		expList   = fs.String("experiment", "all", "experiments to run (comma-separated)")
		scaleName = fs.String("scale", "standard", "quick | standard | full")
		seed      = fs.Uint64("seed", 1, "RNG seed")
		csvDir    = fs.String("csv", "", "export convergence curves as CSV into this directory")
		version   = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, "isasgd-bench", obs.FullVersion())
		return nil
	}

	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	want, err := parseExperiments(*expList)
	if err != nil {
		return err
	}
	r := experiments.NewRunner(out, scale, *seed)

	fmt.Fprintf(out, "IS-ASGD evaluation harness — scale=%s seed=%d\n", scale.Name, *seed)
	sum, err := r.Run(ctx, want)
	if err != nil || sum == nil || *csvDir == "" {
		return err
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		return err
	}
	for _, name := range slices.Sorted(maps.Keys(sum.Conv)) {
		path := filepath.Join(*csvDir, fmt.Sprintf("curves_%s.csv", name))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := experiments.WriteCurvesCSV(f, name, sum.Conv[name].Curves); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
	}
	return nil
}

// parseExperiments splits the -experiment list and rejects any name
// outside experimentNames, so a misspelled or retired experiment fails
// before anything runs instead of silently running nothing.
func parseExperiments(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		name := strings.TrimSpace(strings.ToLower(e))
		if !slices.Contains(experimentNames, name) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(experimentNames, ","))
		}
		want[name] = true
	}
	if want["all"] {
		for _, name := range experiments.Names {
			want[name] = true
		}
	}
	return want, nil
}
