package stream

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/xrand"
)

// BenchmarkReader measures chunked-parse throughput in rows/op over a
// resident corpus.
func BenchmarkReader(b *testing.B) {
	corpus := makeSkewedCorpus(4096, 128, 0.5, 1, 1)
	b.SetBytes(int64(len(corpus)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(strings.NewReader(corpus), "bench", 512)
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkISStateObserve measures the ingest path: reservoir insert
// plus amortized alias rebuilds every 1024 observations.
func BenchmarkISStateObserve(b *testing.B) {
	s := NewISState(1<<14, 1024, 1)
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(int64(i), rng.Float64()*10)
	}
}

// BenchmarkISStateSample measures the hot O(1) sampling path.
func BenchmarkISStateSample(b *testing.B) {
	s := NewISState(1<<14, 0, 1)
	rng := xrand.New(2)
	for i := 0; i < 1<<14; i++ {
		s.Observe(int64(i), rng.Float64()*10)
	}
	s.Rebuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := s.Sample(rng); !ok {
			b.Fatal("sample failed")
		}
	}
}

// BenchmarkTrainerIngest measures end-to-end streaming training
// throughput (parse + shard + observe + update budget) per corpus pass.
func BenchmarkTrainerIngest(b *testing.B) {
	corpus := makeSkewedCorpus(2048, 128, 0.8, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := NewTrainer(streamConfigBench(128))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tr.Run(context.Background(), NewReader(strings.NewReader(corpus), "bench", 256)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainerRun is the whole streaming path as the CLI and the
// serving jobs run it: Run's reading goroutine parsing ahead of a
// two-worker trainer that publishes a version per block, on a model big
// enough (512 KB) for the cut to matter. Per corpus pass; compare with
// BenchmarkTrainerRunByHand, the same work taking turns.
func BenchmarkTrainerRun(b *testing.B) {
	benchTrainerRun(b, "bound", runAll)
}

// BenchmarkTrainerRunGrad is BenchmarkTrainerRun under gradient-norm
// importance: every update also stores its |ℓ'|, admission computes
// each row's norm and every rebuild weighs the reservoir by them.
func BenchmarkTrainerRunGrad(b *testing.B) {
	benchTrainerRun(b, "grad", runAll)
}

func runAll(tr *Trainer, r *Reader) error {
	_, err := tr.Run(context.Background(), r)
	return err
}

// BenchmarkTrainerRunByHand drives Next and Ingest from one goroutine.
func BenchmarkTrainerRunByHand(b *testing.B) {
	benchTrainerRun(b, "bound", func(tr *Trainer, r *Reader) error {
		_, err := handDriven(tr, r)
		return err
	})
}

func benchTrainerRun(b *testing.B, importance string, run func(*Trainer, *Reader) error) {
	const dim = 1 << 16
	corpus := makeSkewedCorpus(16384, dim, 0.5, 1, 1)
	cfg := streamConfigBench(dim)
	cfg.Importance = importance
	b.SetBytes(int64(len(corpus)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Snapshots = snapshot.NewStore()
		tr, err := NewTrainer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := run(tr, NewReader(strings.NewReader(corpus), "bench", 1024)); err != nil {
			b.Fatal(err)
		}
	}
}

func streamConfigBench(dim int) Config {
	cfg := streamConfig(dim, false)
	cfg.Workers = 2
	return cfg
}

// BenchmarkTrainerPublish times the per-block cut of a dim-600 000 model
// (the stream benchmark's size) on two workers, each after a block of
// 1 024 updates: patched, where the store hands the cut the buffer of
// the trainer's version before last and the cut copies the coordinates
// the two blocks since wrote, and full, where the trainer has forgotten
// its cuts and copies the whole model into the same reused buffer.
// publish-ns/op is the cut alone (ns/op adds the block's updates), and
// listed/op how many coordinates a patched cut copies.
func BenchmarkTrainerPublish(b *testing.B) {
	const dim, bs = 600_000, 1024
	corpus := makeSkewedCorpus(4*bs, dim, 0.3, 1, 1)
	for _, full := range []bool{false, true} {
		name := "patched"
		if full {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			cfg := streamConfigBench(dim)
			cfg.Snapshots = snapshot.NewStore()
			tr, err := NewTrainer(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tr.Run(context.Background(), NewReader(strings.NewReader(corpus), "bench", bs)); err != nil {
				b.Fatal(err)
			}
			var cut time.Duration
			listed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.runUpdates(bs)
				if full {
					tr.cuts.s1, tr.cuts.s2 = 0, 0
				}
				listed += len(tr.cuts.last) + tr.cuts.pendingLen()
				start := time.Now()
				tr.publish()
				cut += time.Since(start)
			}
			b.ReportMetric(float64(cut.Nanoseconds())/float64(b.N), "publish-ns/op")
			if !full {
				b.ReportMetric(float64(listed)/float64(b.N), "listed/op")
			}
		})
	}
}
