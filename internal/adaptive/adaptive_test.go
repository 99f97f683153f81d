package adaptive

import (
	"math"
	"sync"
	"testing"

	"github.com/isasgd/isasgd/internal/snapshot"
)

func TestPolicyEnabledAndValidate(t *testing.T) {
	if (Policy{}).Enabled() {
		t.Fatal("zero policy must be disabled")
	}
	for _, p := range []Policy{{AdaptC: 0.1}, {StalenessBound: 4}, {DCLambda: 0.5}} {
		if !p.Enabled() {
			t.Fatalf("policy %+v should be enabled", p)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("policy %+v: %v", p, err)
		}
	}
	for _, p := range []Policy{
		{AdaptC: -1}, {AdaptC: math.NaN()}, {AdaptC: math.Inf(1)},
		{DCLambda: -0.5}, {DCLambda: math.NaN()},
	} {
		if err := p.Validate(); err == nil {
			t.Fatalf("policy %+v should fail validation", p)
		}
	}
}

func TestPolicyScaleAndShed(t *testing.T) {
	p := Policy{AdaptC: 0.5, StalenessBound: 3}
	if got := p.Scale(0); got != 1 {
		t.Fatalf("fresh update must keep full step, got %g", got)
	}
	if got, want := p.Scale(2), 1/(1+0.5*2.0); got != want {
		t.Fatalf("Scale(2) = %g, want %g", got, want)
	}
	if (Policy{}).Scale(100) != 1 {
		t.Fatal("disabled policy must not scale")
	}
	if p.Shed(3) {
		t.Fatal("tau at the bound must be admitted")
	}
	if !p.Shed(4) {
		t.Fatal("tau over the bound must shed")
	}
	if (Policy{}).Shed(1 << 40) {
		t.Fatal("disabled bound must admit everything")
	}
}

// TestClock pins the τ probe the training loops build from the clock:
// begin := Now() at gradient-read time, τ := Tick() − begin − 1 at the
// write — the updates other workers landed in between.
func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("fresh clock not at zero")
	}
	// A single worker never sees interleaved updates: τ is exactly 0.
	for i := int64(1); i <= 10; i++ {
		begin := c.Now()
		now := c.Tick()
		if now != i {
			t.Fatalf("Tick = %d, want %d", now, i)
		}
		if tau := now - begin - 1; tau != 0 {
			t.Fatalf("solo worker staleness = %d, want 0", tau)
		}
	}
	// Worker 0 reads the clock, then worker 1 applies 3 updates before
	// worker 0 writes: τ for worker 0's update is exactly 3.
	b0 := c.Now()
	for i := 0; i < 3; i++ {
		b1 := c.Now()
		if tau := c.Tick() - b1 - 1; tau != 0 {
			t.Fatalf("uncontended worker staleness = %d, want 0", tau)
		}
	}
	if tau := c.Tick() - b0 - 1; tau != 3 {
		t.Fatalf("interleaved staleness = %d, want 3", tau)
	}
	// Concurrent workers: no tick is lost and no τ is negative.
	const workers, per = 4, 500
	start := c.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				begin := c.Now()
				if tau := c.Tick() - begin - 1; tau < 0 {
					t.Errorf("negative staleness %d", tau)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Now() - start; got != workers*per {
		t.Fatalf("clock advanced %d, want %d", got, workers*per)
	}
}

func TestLossMapSeedObserveWeight(t *testing.T) {
	lm := NewLossMap(0.5)
	if lm.Observe(7, 1.0) {
		t.Fatal("unseeded ref must not record")
	}
	lm.Seed(7)
	if got := lm.Weight(7, 3.5); got != 3.5 {
		t.Fatalf("seeded-but-unseen ref must fall back to the bound, got %g", got)
	}
	if !lm.Observe(7, 2.0) {
		t.Fatal("seeded ref must record")
	}
	if got := lm.Weight(7, 3.5); got != 2.0 {
		t.Fatalf("first observation sets the EMA, got %g", got)
	}
	lm.Observe(7, 4.0)
	if got, want := lm.Weight(7, 0), 0.5*2.0+0.5*4.0; got != want {
		t.Fatalf("EMA = %g, want %g", got, want)
	}
	// Seeding again must not reset the EMA (the row re-enters a shard).
	lm.Seed(7)
	if got := lm.Weight(7, 0); got != 3.0 {
		t.Fatalf("re-seed reset the EMA to %g", got)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if lm.Observe(7, bad) {
			t.Fatalf("loss %g must be dropped", bad)
		}
	}
	if got := lm.Weight(7, 0); got != 3.0 {
		t.Fatalf("bad observations moved the EMA to %g", got)
	}
	if got := lm.Weight(99, 1.25); got != 1.25 {
		t.Fatalf("unknown ref must fall back, got %g", got)
	}
}

func TestLossMapEvictBefore(t *testing.T) {
	lm := NewLossMap(0)
	if lm.Beta() != DefaultLossBeta {
		t.Fatalf("out-of-range beta must select the default, got %g", lm.Beta())
	}
	for ref := int64(0); ref < 10; ref++ {
		lm.Seed(ref)
	}
	lm.EvictBefore(6)
	if lm.Len() != 4 {
		t.Fatalf("Len after evict = %d, want 4", lm.Len())
	}
	if lm.Observe(3, 1) {
		t.Fatal("evicted ref must not record")
	}
	if !lm.Observe(6, 1) {
		t.Fatal("surviving ref must record")
	}
}

func TestBaseRing(t *testing.T) {
	r := NewBaseRing(4)
	if r.Get(1) != nil {
		t.Fatal("empty ring returned a version")
	}
	vs := make([]*snapshot.Version, 7)
	for i := range vs {
		vs[i] = &snapshot.Version{Seq: uint64(i + 1), Weights: []float64{float64(i)}}
		r.Add(vs[i])
	}
	// Capacity 4, seqs 1..7: 4..7 live, 1..3 evicted.
	for seq := uint64(1); seq <= 3; seq++ {
		if r.Get(seq) != nil {
			t.Fatalf("seq %d should be evicted", seq)
		}
	}
	for seq := uint64(4); seq <= 7; seq++ {
		if got := r.Get(seq); got != vs[seq-1] {
			t.Fatalf("seq %d not retained", seq)
		}
	}
	r.Add(nil) // must not panic or displace anything
	if r.Get(7) == nil {
		t.Fatal("nil Add displaced a version")
	}
}

func TestBaseRingConcurrent(t *testing.T) {
	r := NewBaseRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				seq := uint64(g*1000 + i + 1)
				r.Add(&snapshot.Version{Seq: seq})
				if v := r.Get(seq); v != nil && v.Seq != seq {
					t.Errorf("Get(%d) returned seq %d", seq, v.Seq)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCompensateDelta(t *testing.T) {
	idx := []int{0, 2}
	val := []float64{0.5, -0.25}
	now := []float64{1.0, 0, 2.0}
	base := []float64{0.5, 0, 2.5}
	CompensateDelta(idx, val, now, base, 2.0)
	// d=0.5, drift=0.5: 0.5 − 2·0.25·0.5 = 0.25
	if got := val[0]; got != 0.25 {
		t.Fatalf("val[0] = %g, want 0.25", got)
	}
	// d=−0.25, drift=−0.5: −0.25 − 2·0.0625·(−0.5) = −0.1875
	if got := val[1]; got != -0.1875 {
		t.Fatalf("val[1] = %g, want -0.1875", got)
	}
	// λ=0 must be the identity, bitwise.
	orig := []float64{0.125, -0.375}
	cp := append([]float64(nil), orig...)
	CompensateDelta(idx, cp, now, base, 0)
	for k := range cp {
		if math.Float64bits(cp[k]) != math.Float64bits(orig[k]) {
			t.Fatalf("lambda=0 changed val[%d]: %g -> %g", k, orig[k], cp[k])
		}
	}
}

func TestAttenuateDelta(t *testing.T) {
	val := []float64{1, -2}
	AttenuateDelta(val, 0, 100)
	AttenuateDelta(val, 0.5, 0)
	if val[0] != 1 || val[1] != -2 {
		t.Fatal("disabled attenuation must be the identity")
	}
	AttenuateDelta(val, 0.5, 2)
	if want := 1 / (1 + 0.5*2.0); val[0] != want || val[1] != -2*want {
		t.Fatalf("attenuated to %v, want scale %g", val, want)
	}
}

// TestLossMapNoSteadyStateAllocs guards the hot-loop contract: observing
// losses for seeded rows must not allocate.
func TestLossMapNoSteadyStateAllocs(t *testing.T) {
	lm := NewLossMap(0.25)
	for ref := int64(0); ref < 256; ref++ {
		lm.Seed(ref)
	}
	ref := int64(0)
	avg := testing.AllocsPerRun(1000, func() {
		lm.Observe(ref, 1.5)
		ref = (ref + 1) % 256
	})
	if avg != 0 {
		t.Fatalf("LossMap.Observe allocates %.2f/op, want 0", avg)
	}
}

// FuzzLossEMA drives the EMA update path with arbitrary loss streams and
// checks the invariant the sampling layer depends on: a seeded row's
// weight stays finite and non-negative no matter what losses arrive.
func FuzzLossEMA(f *testing.F) {
	f.Add(0.25, 1.0, 2.0, -1.0)
	f.Add(0.5, math.MaxFloat64, math.MaxFloat64, math.MaxFloat64)
	f.Add(1.0, 0.0, math.SmallestNonzeroFloat64, 1e300)
	f.Fuzz(func(t *testing.T, beta, l1, l2, l3 float64) {
		lm := NewLossMap(beta)
		lm.Seed(1)
		for _, l := range []float64{l1, l2, l3} {
			lm.Observe(1, l)
		}
		w := lm.Weight(1, 1)
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			t.Fatalf("beta=%g losses=(%g,%g,%g): weight %g escaped [0, +Inf)",
				beta, l1, l2, l3, w)
		}
	})
}
