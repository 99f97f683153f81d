package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
)

// benchImportance runs fn as a sub-benchmark for each importance mode at
// 1 and 2 workers, on an IS-ASGD engine over a kdda-like corpus (30k
// rows, atomic f64 model), and reports fn's updates as ns/update.
func benchImportance(b *testing.B, fn func(e *Engine) int64) {
	ds, err := dataset.Synthesize(dataset.KDDALike(0.1, 1))
	if err != nil {
		b.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-4}
	for _, importance := range []string{"bound", "grad"} {
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/t%d", importance, threads), func(b *testing.B) {
				e, err := NewISASGDOpts(ds, obj, model.NewAtomic(ds.Dim()), threads, ISOptions{
					Mode: balance.ForceShuffle, Seed: 1, Importance: importance,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var updates int64
				for i := 0; i < b.N; i++ {
					updates += fn(e)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(updates), "ns/update")
			})
		}
	}
}

// BenchmarkLoop times the update loop alone — every worker's pass over
// its sequence, concurrently, with no end-of-epoch refresh — so "grad"
// against "bound" is the cost of storing |ℓ'| on every update.
func BenchmarkLoop(b *testing.B) {
	benchImportance(b, func(e *Engine) int64 {
		var wg sync.WaitGroup
		for t := range e.shards {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				e.runWorker(t, 0.1)
			}(t)
		}
		wg.Wait()
		return e.ItersPerEpoch()
	})
}

// BenchmarkEpoch times whole epochs: beside the updates, "grad" rebuilds
// each shard's alias table and step scales from the recorded |ℓ'| at
// the end of every epoch, where "bound" only redraws the sequence.
func BenchmarkEpoch(b *testing.B) {
	benchImportance(b, func(e *Engine) int64 { return e.RunEpoch(0.1) })
}
