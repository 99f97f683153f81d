package core

import (
	"context"
	"testing"

	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/snapshot"
)

// TestTrainPublishesSnapshots pins the snapshot pipeline across the
// Train surface: with Config.Snapshots set, every algorithm publishes
// an epoch-0 version before training, versions at the cadence, and a
// final version matching the returned weights.
func TestTrainPublishesSnapshots(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(5))
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-4}

	for _, algo := range []Algo{SGD, ISSGD, ASGD, ISASGD, SVRGSGD, SVRGASGD} {
		t.Run(algo.String(), func(t *testing.T) {
			st := snapshot.NewStore()
			var seqAtProgress uint64
			res, err := Train(context.Background(), ds, obj, Config{
				Algo: algo, Epochs: 5, Step: 0.3, Threads: 2, Seed: 5,
				Snapshots: st, PublishEvery: 2,
				Progress: func(p metrics.Point) {
					if p.Epoch == 0 {
						seqAtProgress = st.Seq()
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// The epoch-0 version exists before the first Progress tick, so
			// a live-serving consumer registering there finds a servable
			// store.
			if seqAtProgress == 0 {
				t.Fatal("no version published before the epoch-0 Progress callback")
			}
			v := st.Load()
			if v == nil {
				t.Fatal("no final version")
			}
			// Epochs 0, 2, 4 at the cadence plus the final epoch 5.
			if v.Epoch != 5 {
				t.Fatalf("final version epoch = %d, want 5", v.Epoch)
			}
			if v.Iters != res.Iters {
				t.Fatalf("final version iters = %d, want %d", v.Iters, res.Iters)
			}
			if v.Seq != 4 {
				t.Fatalf("final seq = %d, want 4 (epoch 0, 2, 4, 5)", v.Seq)
			}
			for j := range res.Weights {
				if v.Weights[j] != res.Weights[j] {
					t.Fatalf("final version weights diverge from result at %d", j)
				}
			}
		})
	}
}
