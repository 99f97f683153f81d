// Quickstart: synthesize a small sparse classification dataset, train
// IS-ASGD on the paper's objective, and print the convergence curve.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	isasgd "github.com/isasgd/isasgd"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A small well-conditioned synthetic dataset (600 × 400, ~12 nnz/row).
	ds, err := isasgd.Synthesize(isasgd.SmallConfig(1))
	if err != nil {
		return err
	}

	// The paper's evaluation objective: L1-regularized cross-entropy.
	obj := isasgd.LogisticL1(1e-4)

	// Train with the paper's algorithm: importance-sampled asynchronous
	// SGD over seeded-shuffle shards (Algorithm 4).
	res, err := isasgd.Train(context.Background(), ds, obj, isasgd.Config{
		Algo:    isasgd.ISASGD,
		Epochs:  15,
		Step:    0.5,
		Threads: 8,
		Seed:    42,
	})
	if err != nil {
		return err
	}

	fmt.Printf("dataset: %d samples × %d features\n", ds.N(), ds.Dim())
	fmt.Println("epoch  objective   RMSE      error-rate")
	for _, p := range res.Curve {
		fmt.Printf("%5d  %.6f  %.6f  %.4f\n", p.Epoch, p.Obj, p.RMSE, p.ErrRate)
	}
	final := isasgd.Evaluate(ds, obj, res.Weights, 0)
	fmt.Printf("final: objective %.6f, error rate %.4f, %d updates in %.3fs\n",
		final.Obj, final.ErrRate, res.Iters, res.TrainTime.Seconds())
	return nil
}
