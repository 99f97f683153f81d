package core

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/sampling"
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

// TestScaleExpectationProperty checks the Eq.-8 unbiasedness identities
// per worker, with p read off the worker's alias table (the probability
// its draws follow, sampling.Alias.Implied) rather than its Prob:
//
//	Σ_k p_k·s_k = 1 and Σ_k p_k·s_k·g_k = (1/N_a)·Σ_k g_k,
//
// the second for the loss gradients g_k = ℓ'(w·x_k)·x_k of the shard's
// rows at the engine's weights, coordinate by coordinate. Both sides are
// computed exactly (big.Rat) from the float64 tables, so the only slack
// is the tables' own rounding: s_k = 1/(N_a·Prob(k)) rounds twice
// (2u), and p_k is Prob(k) within T = sampling.VoseBound, so
// |p_k·s_k·N_a − 1| ≤ δ_k = 3u + T·s_k·N_a, and the identities hold
// within (1/N_a)·Σ_k δ_k and (1/N_a)·Σ_k |g_k|·δ_k (1 % over, for the
// second-order terms).
// It covers bound and grad importance, grad after one reweighing epoch
// (on the referee at τ = K − 1, so the weights repeat), at K ∈ {1, 2, 4}
// workers on dataset.Small.
func TestScaleExpectationProperty(t *testing.T) {
	const u = 0x1p-53
	ds, obj := smallProblem(t)
	for _, importance := range []string{"bound", "grad"} {
		for _, k := range []int{1, 2, 4} {
			e, err := NewISASGDOpts(ds, obj, model.NewRacy(ds.Dim()), k, ISOptions{Seed: 5, Importance: importance})
			if err != nil {
				t.Fatal(err)
			}
			e.RunEpochDelayed(0.5, k-1) // grad reweighs here, from the recorded |ℓ'|
			w := e.Snapshot(nil)
			for tid, shard := range e.shards {
				al := e.samplers[tid].(*sampling.Alias)
				p := al.Implied(nil)
				na := float64(len(shard))
				m := 0.0
				for _, q := range al.Probs() {
					m = max(m, q*na)
				}
				vose := sampling.VoseBound(len(shard), m)
				one, mean, is := new(big.Rat), make([]big.Rat, ds.Dim()), make([]big.Rat, ds.Dim())
				slack := make([]float64, ds.Dim())
				slackOne := 0.0
				var ps, term big.Rat
				for pos, i := range shard {
					s := e.scales[tid][pos]
					ps.Mul(new(big.Rat).SetFloat64(p[pos]), new(big.Rat).SetFloat64(s))
					one.Add(one, &ps)
					delta := 3*u + vose*s*na
					slackOne += delta * 1.01 / na
					row := ds.X.Row(i)
					g := obj.Deriv(row.Dot(w), ds.Y[i])
					for kk, j := range row.Idx {
						gj := new(big.Rat).SetFloat64(g * row.Val[kk])
						is[j].Add(&is[j], term.Mul(&ps, gj))
						mean[j].Add(&mean[j], gj)
						slack[j] += math.Abs(g*row.Val[kk]) * delta * 1.01 / na
					}
				}
				if d, _ := new(big.Rat).Sub(one, big.NewRat(1, 1)).Float64(); math.Abs(d) > slackOne {
					t.Errorf("%s K=%d worker %d: Σ p·s = 1%+g", importance, k, tid, d)
				}
				inv := big.NewRat(1, int64(len(shard)))
				for j := range mean {
					mean[j].Mul(&mean[j], inv)
					if d, _ := new(big.Rat).Sub(&is[j], &mean[j]).Float64(); math.Abs(d) > slack[j] {
						t.Errorf("%s K=%d worker %d coordinate %d: Σ p·s·g − mean g = %g, beyond %g",
							importance, k, tid, j, d, slack[j])
					}
				}
			}
		}
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
