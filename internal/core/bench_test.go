package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/sparse"
	"github.com/isasgd/isasgd/internal/xrand"
)

// benchArms are the constructions the loop benchmarks compare: IS-ASGD
// under both importance modes, "bound" again over the racy float32 model
// batch_dense trains, uniform ASGD, and sparse SVRG, whose epoch-start
// pass has run once so its anchors and shift are real.
var benchArms = []struct {
	name  string
	build func(ds *dataset.Dataset, obj objective.Objective, threads int) (*Engine, error)
}{
	{"bound", func(ds *dataset.Dataset, obj objective.Objective, threads int) (*Engine, error) {
		return NewISASGDOpts(ds, obj, model.NewAtomic(ds.Dim()), threads, ISOptions{Mode: balance.ForceShuffle, Seed: 1})
	}},
	{"grad", func(ds *dataset.Dataset, obj objective.Objective, threads int) (*Engine, error) {
		return NewISASGDOpts(ds, obj, model.NewAtomic(ds.Dim()), threads, ISOptions{Mode: balance.ForceShuffle, Seed: 1, Importance: "grad"})
	}},
	{"bound32", func(ds *dataset.Dataset, obj objective.Objective, threads int) (*Engine, error) {
		return NewISASGDOpts(ds, obj, model.NewRacy32(ds.Dim()), threads, ISOptions{Mode: balance.ForceShuffle, Seed: 1})
	}},
	{"asgd", func(ds *dataset.Dataset, obj objective.Objective, threads int) (*Engine, error) {
		return NewASGD(ds, obj, model.NewAtomic(ds.Dim()), threads, 1)
	}},
	{"svrg", func(ds *dataset.Dataset, obj objective.Objective, threads int) (*Engine, error) {
		e, err := NewSVRG(ds, obj, model.NewAtomic(ds.Dim()), threads, 1)
		if err == nil {
			e.svrgEpoch(false)
		}
		return e, err
	}},
}

// benchEngines runs fn as a sub-benchmark for each arm at 1 and 2
// workers, on a kdda-like corpus (30k rows, atomic f64 model), and
// reports fn's updates as ns/update.
func benchEngines(b *testing.B, fn func(e *Engine) int64) {
	ds, err := dataset.Synthesize(dataset.KDDALike(0.1, 1))
	if err != nil {
		b.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-4}
	for _, arm := range benchArms {
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/t%d", arm.name, threads), func(b *testing.B) {
				e, err := arm.build(ds, obj, threads)
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
// against "bound" is the cost of storing |ℓ'| on every update, and
// "svrg" against "asgd" the cost of the anchor read and the shifted
// write-back, which reads no clock without the histograms.
func BenchmarkLoop(b *testing.B) {
	benchEngines(b, func(e *Engine) int64 {
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
// the end of every epoch, where "bound" only redraws the sequence, and
// "svrg" opens every epoch with its anchor pass.
func BenchmarkEpoch(b *testing.B) {
	benchEngines(b, func(e *Engine) int64 { return e.RunEpoch(0.1) })
}

// BenchmarkConstruct times NewISASGDOpts as batch_dense pays it once per
// run: the 90 000-row training split of a news20-like corpus (100 000
// rows, about 40 non-zeros each) on the racy float32 model, adaptive
// plan (its ρ takes the head–tail branch), at 1 and 2 workers. The
// corpus and split are built once; each iteration constructs on a fresh
// CSR header over the split's arrays, so it pays the float32 conversion
// a new split pays, and the header and model are made off the timer.
func BenchmarkConstruct(b *testing.B) {
	cfg := dataset.News20Like(1, 1)
	cfg.N = 100_000
	ds, err := dataset.Synthesize(cfg)
	if err != nil {
		b.Fatal(err)
	}
	train := ds.Reorder(xrand.New(7).Perm(ds.N())[:90_000])
	obj := objective.LogisticL1{Eta: 1e-5}
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("t%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				x := sparse.CSR{Dim: train.X.Dim, IndPtr: train.X.IndPtr, Idx: train.X.Idx, Val: train.X.Val}
				split := &dataset.Dataset{Name: train.Name, X: &x, Y: train.Y}
				m := model.NewRacy32(split.Dim())
				b.StartTimer()
				if _, err := NewISASGDOpts(split, obj, m, threads, ISOptions{Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
