package stream

import (
	"context"
	"io"
	"strings"
	"testing"

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
	benchTrainerRun(b, func(tr *Trainer, r *Reader) error {
		_, err := tr.Run(context.Background(), r)
		return err
	})
}

// BenchmarkTrainerRunByHand drives Next and Ingest from one goroutine.
func BenchmarkTrainerRunByHand(b *testing.B) {
	benchTrainerRun(b, func(tr *Trainer, r *Reader) error {
		_, err := handDriven(tr, r)
		return err
	})
}

func benchTrainerRun(b *testing.B, run func(*Trainer, *Reader) error) {
	const dim = 1 << 16
	corpus := makeSkewedCorpus(16384, dim, 0.5, 1, 1)
	cfg := streamConfigBench(dim)
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
