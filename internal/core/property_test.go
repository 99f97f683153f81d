package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/xrand"
)

// TestShardsPartitionDatasetProperty: for every construction, the worker
// shards are a disjoint cover of the row indices.
func TestShardsPartitionDatasetProperty(t *testing.T) {
	ds, obj := smallProblem(t)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		threads := 1 + r.Intn(12)
		mode := []balance.Mode{balance.ForceBalance, balance.ForceShuffle}[r.Intn(2)]
		e, err := NewISASGDOpts(ds, obj, model.NewAtomic(ds.Dim()), threads, ISOptions{
			Mode: mode, Seed: seed,
		})
		if err != nil {
			return false
		}
		seen := make([]bool, ds.N())
		total := 0
		for _, shard := range e.shards {
			for _, i := range shard {
				if i < 0 || i >= ds.N() || seen[i] {
					return false
				}
				seen[i] = true
				total++
			}
		}
		return total == ds.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestScaleExpectationProperty: per worker, the expected step correction
// under its sampling distribution is exactly 1 (the Eq.-8 unbiasedness
// identity Σ_k p_k · 1/(N_a·p_k) = 1), for any mode and thread count.
func TestScaleExpectationProperty(t *testing.T) {
	ds, obj := smallProblem(t)
	type prober interface{ Prob(int) float64 }
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		threads := 1 + r.Intn(8)
		pb := r.Intn(2) == 0
		e, err := NewISASGDOpts(ds, obj, model.NewAtomic(ds.Dim()), threads, ISOptions{
			Seed: seed, PartialBias: pb,
		})
		if err != nil {
			return false
		}
		for tid := range e.shards {
			if len(e.shards[tid]) == 0 {
				continue
			}
			pr := e.samplers[tid].(prober)
			sum := 0.0
			for k := range e.shards[tid] {
				sum += pr.Prob(k) * e.scales[tid][k]
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSequencesCoverShardRangeProperty: pre-generated sequences index
// only valid local positions.
func TestSequencesCoverShardRangeProperty(t *testing.T) {
	ds, obj := smallProblem(t)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		threads := 1 + r.Intn(8)
		e, err := NewISASGDOpts(ds, obj, model.NewAtomic(ds.Dim()), threads, ISOptions{
			Mode: balance.ForceShuffle, Seed: seed,
		})
		if err != nil {
			return false
		}
		for tid, seq := range e.seqs {
			if seq == nil {
				continue
			}
			if len(seq) != len(e.shards[tid]) {
				return false
			}
			for _, pos := range seq {
				if pos < 0 || int(pos) >= len(e.shards[tid]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
