package adaptive

import (
	"math"
	"sync"
	"testing"

	"github.com/isasgd/isasgd/internal/snapshot"
)

// TestCheckNonNegative pins the rule of the policy strengths: 0 and
// positive finite values pass, negative and non-finite ones fail.
func TestCheckNonNegative(t *testing.T) {
	for _, v := range []float64{0, 0.1, 4} {
		if err := CheckNonNegative("x", v); err != nil {
			t.Fatalf("%g: %v", v, err)
		}
	}
	for _, v := range []float64{-1, -0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckNonNegative("x", v); err == nil {
			t.Fatalf("%g passed", v)
		}
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
