package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"github.com/isasgd/isasgd/internal/spec"
	"github.com/isasgd/isasgd/internal/stream"
)

// runStream trains online over the input file in bounded memory and
// prints one progress row per ingested block (sliding-window metrics),
// then a final full-corpus evaluation computed with a second bounded-
// memory pass.
func runStream(ctx context.Context, out io.Writer, s spec.Spec, data, modelOut string) error {
	in, err := os.Open(data)
	if err != nil {
		return err
	}
	defer in.Close()
	cfg := stream.FromSpec(s)
	tr, err := stream.NewTrainer(cfg)
	if err != nil {
		return err
	}
	sampler := map[bool]string{true: "uniform", false: "online-is"}[cfg.Uniform]
	if s.Importance == "grad" {
		sampler = "grad-norm-is"
	}
	fmt.Fprintf(out, "streaming %s: dim %d, %d workers, sampler %s\n",
		data, s.Dim, cfg.Workers, sampler)
	fmt.Fprintln(out, " block   win-rows      updates  win-obj    win-err   Φ-imbalance")
	tr.SetOnBlock(func(b stream.BlockStats) {
		o, _, errRate, _ := tr.EvaluateWindow()
		fmt.Fprintf(out, "%6d %10d %12d  %-10.6f %-8.5f %.4f\n",
			b.Block, b.WindowRows, b.Updates, o, errRate, b.Imbalance)
	})

	res, err := tr.Run(ctx, stream.NewReader(in, data, s.BlockSize))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "streamed %d rows in %d blocks, %d updates\n", res.Rows, res.Blocks, res.Updates)

	// Second bounded-memory pass: evaluate the final model on the full
	// corpus.
	in2, err := os.Open(data)
	if err != nil {
		return err
	}
	defer in2.Close()
	o, rmse, errRate, n, err := stream.Evaluate(in2, data, s.BlockSize, cfg.Obj, res.Weights)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "full corpus (%d rows): obj=%.6f rmse=%.6f err=%.5f\n", n, o, rmse, errRate)
	if modelOut != "" {
		return writeModelFile(out, modelOut, res.Weights)
	}
	return nil
}
