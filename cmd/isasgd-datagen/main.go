// Command isasgd-datagen writes the synthetic dataset analogs (or a
// custom configuration) to LibSVM files.
//
// Usage:
//
//	isasgd-datagen -preset news20 -out news20s.libsvm [flags]
//
//	-preset name   news20 | url | kdda | kddb | small, or the serve
//	               spellings news20s | urls | kddas | kddbs (default "small")
//	-scale x       preset size multiplier in (0,1] (default 0.25)
//	-seed n        RNG seed (default 1)
//	-out path      output file (default "<preset>.libsvm")
//	-n, -dim, -nnz override preset sample count / dimensionality / row nnz
//	-version       print the build version and exit
package main

import (
	"flag"
	"fmt"
	"os"

	isasgd "github.com/isasgd/isasgd"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "isasgd-datagen: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		preset  = flag.String("preset", "small", "news20 | url | kdda | kddb | small (or news20s | urls | kddas | kddbs)")
		scale   = flag.Float64("scale", 0.25, "preset size multiplier")
		seed    = flag.Uint64("seed", 1, "RNG seed")
		out     = flag.String("out", "", "output file (default <preset>.libsvm)")
		nOver   = flag.Int("n", 0, "override sample count")
		dOver   = flag.Int("dim", 0, "override dimensionality")
		zOver   = flag.Int("nnz", 0, "override mean non-zeros per row")
		version = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("isasgd-datagen", obs.FullVersion())
		return nil
	}

	cfg, err := dataset.Preset(*preset, *scale, *seed)
	if err != nil {
		return err
	}
	if *nOver > 0 {
		cfg.N = *nOver
	}
	if *dOver > 0 {
		cfg.Dim = *dOver
	}
	if *zOver > 0 {
		cfg.NNZPerRow = *zOver
		if cfg.NNZJitter >= cfg.NNZPerRow {
			cfg.NNZJitter = cfg.NNZPerRow - 1
		}
	}
	ds, err := isasgd.Synthesize(cfg)
	if err != nil {
		return err
	}

	path := *out
	if path == "" {
		path = cfg.Name + ".libsvm"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := isasgd.SaveLibSVM(f, ds); err != nil {
		return err
	}

	l := isasgd.Weights(ds, isasgd.LogisticL1(1e-4))
	st := isasgd.ComputeStats(ds, l)
	fmt.Printf("wrote %s: %d samples × %d features, density %.2e, ψ=%.3f, ρ=%.2e\n",
		path, st.N, st.Dim, st.Density, st.Psi, st.Rho)
	return nil
}
