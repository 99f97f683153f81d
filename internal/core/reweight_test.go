package core

import (
	"math"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/sampling"
)

func TestPartialBiasWeights(t *testing.T) {
	l := []float64{1, 2, 3, 4} // mean 2.5
	out := partialBiasWeights(l)
	want := []float64{1.75, 2.25, 2.75, 3.25}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("partialBiasWeights = %v, want %v", out, want)
		}
	}
	// Normalized, every p_i must satisfy p_i ≥ 1/(2n), so the step
	// correction 1/(n·p_i) ≤ 2 — the Needell et al. guarantee.
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	n := float64(len(out))
	for i, v := range out {
		p := v / sum
		if scale := 1 / (n * p); scale > 2+1e-12 {
			t.Fatalf("sample %d: step correction %g exceeds 2", i, scale)
		}
	}
}

func TestPartialBiasEngineOption(t *testing.T) {
	ds, obj := smallProblem(t)
	e, err := NewISASGDOpts(ds, obj, model.NewAtomic(ds.Dim()), 4, ISOptions{
		Mode: balance.Auto, Seed: 3, PartialBias: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for t2, sc := range e.scales {
		for k, s := range sc {
			if s > 2+1e-9 {
				t.Fatalf("worker %d pos %d: scale %g exceeds 2 under partial bias", t2, k, s)
			}
		}
	}
	before := objValue(ds, obj, e.Snapshot(nil))
	for ep := 0; ep < 4; ep++ {
		e.RunEpoch(0.5)
	}
	if after := objValue(ds, obj, e.Snapshot(nil)); after >= before*0.9 {
		t.Fatalf("partial-bias engine failed to optimize: %g -> %g", before, after)
	}
}

func TestReweight(t *testing.T) {
	ds, obj := smallProblem(t)
	e, err := NewISASGDOpts(ds, obj, model.NewAtomic(ds.Dim()), 4, ISOptions{
		Mode: balance.Auto, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reweight with a spike on one sample: its shard's sampler must give
	// it almost all the local probability.
	l := make([]float64, ds.N())
	for i := range l {
		l[i] = 1e-9
	}
	l[0] = 1.0
	if err := e.Reweight(l); err != nil {
		t.Fatal(err)
	}
	// Find sample 0's shard and local position.
	found := false
	for t2, shard := range e.shards {
		for k, i := range shard {
			if i == 0 {
				type prober interface{ Prob(int) float64 }
				p := e.samplers[t2].(prober).Prob(k)
				if p < 0.99 {
					t.Fatalf("spiked sample has local probability %g", p)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("sample 0 not found in any shard")
	}
}

func TestReweightErrors(t *testing.T) {
	ds, obj := smallProblem(t)
	// A uniform (ASGD) engine has no step scales or importance
	// distribution to reweight.
	ua, err := NewASGD(ds, obj, model.NewAtomic(ds.Dim()), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ua.Reweight(make([]float64, ds.N())); err == nil {
		t.Fatal("Reweight on uniform engine accepted")
	}
	// Wrong length.
	e, err := NewISASGDOpts(ds, obj, model.NewAtomic(ds.Dim()), 2, ISOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reweight(make([]float64, 3)); err == nil {
		t.Fatal("Reweight with wrong length accepted")
	}
}

func TestReweightRefreshesSequences(t *testing.T) {
	ds, obj := smallProblem(t)
	e, err := NewISASGDOpts(ds, obj, model.NewAtomic(ds.Dim()), 2, ISOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	old := append([]int32(nil), e.seqs[0]...)
	l := objective.Weights(ds.X, obj)
	if err := e.Reweight(l); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range old {
		if e.seqs[0][i] != old[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Reweight did not regenerate sequences")
	}
	_ = sampling.Sequence // documentation anchor
}
