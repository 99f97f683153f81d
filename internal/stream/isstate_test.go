package stream

import (
	"math"
	"sync"
	"testing"

	"github.com/isasgd/isasgd/internal/xrand"
)

func TestISStateExactWhenUnderCapacity(t *testing.T) {
	s := NewISState(16, 0, 1)
	weights := []float64{1, 2, 3, 4}
	for i, w := range weights {
		s.Observe(int64(i), w)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	s.Rebuild()
	// Draw frequencies must track w_i / Σw = i+1 / 10.
	rng := xrand.New(7)
	const draws = 200_000
	counts := make([]int, 4)
	for i := 0; i < draws; i++ {
		e, scale, ok := s.Sample(rng)
		if !ok {
			t.Fatal("Sample not ok after Rebuild")
		}
		counts[e.Ref]++
		// scale = 1/(n·p_i) with p_i = w_i/10 and n = 4.
		wantScale := 10 / (4 * weights[e.Ref])
		if math.Abs(scale-wantScale) > 1e-12 {
			t.Fatalf("ref %d: scale %g, want %g", e.Ref, scale, wantScale)
		}
	}
	for i, c := range counts {
		got := float64(c) / draws
		want := weights[i] / 10
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("ref %d drawn with frequency %.4f, want %.4f", i, got, want)
		}
	}
}

func TestISStateNoSampleBeforeRebuild(t *testing.T) {
	s := NewISState(8, 0, 1)
	s.Observe(0, 1)
	if _, _, ok := s.Sample(xrand.New(1)); ok {
		t.Fatal("Sample should not succeed before any Rebuild")
	}
	if _, ok := s.SampleUniform(xrand.New(1)); ok {
		t.Fatal("SampleUniform should not succeed before any Rebuild")
	}
}

func TestISStateObservationTriggeredRebuild(t *testing.T) {
	s := NewISState(8, 3, 1)
	s.Observe(0, 1)
	s.Observe(1, 1)
	if _, _, ok := s.Sample(xrand.New(1)); ok {
		t.Fatal("rebuild should not have fired after 2 of 3 observations")
	}
	s.Observe(2, 1)
	if _, _, ok := s.Sample(xrand.New(1)); !ok {
		t.Fatal("rebuild should have fired on the 3rd observation")
	}
}

func TestISStateEvictBefore(t *testing.T) {
	s := NewISState(16, 0, 1)
	for i := 0; i < 10; i++ {
		s.Observe(int64(i), 1)
	}
	s.EvictBefore(6)
	if s.Len() != 4 {
		t.Fatalf("Len after evict = %d, want 4", s.Len())
	}
	s.Rebuild()
	rng := xrand.New(3)
	for i := 0; i < 100; i++ {
		e, _, ok := s.Sample(rng)
		if !ok || e.Ref < 6 {
			t.Fatalf("sampled evicted ref %d (ok=%v)", e.Ref, ok)
		}
	}
}

func TestISStateBoundedMemory(t *testing.T) {
	s := NewISState(32, 0, 1)
	for i := 0; i < 10_000; i++ {
		s.Observe(int64(i), 1+float64(i%5))
	}
	if s.Len() != 32 {
		t.Fatalf("reservoir grew past capacity: %d", s.Len())
	}
}

func TestISStateZeroAndBadWeights(t *testing.T) {
	s := NewISState(8, 0, 1)
	s.Observe(0, 0)
	s.Observe(1, math.NaN())
	s.Observe(2, math.Inf(1))
	s.Observe(3, -5)
	s.Rebuild()
	// All weights clamp to zero: sampling degrades to uniform with unit
	// scale rather than failing.
	rng := xrand.New(5)
	seen := map[int64]bool{}
	for i := 0; i < 200; i++ {
		e, scale, ok := s.Sample(rng)
		if !ok {
			t.Fatal("Sample should degrade to uniform, not fail")
		}
		if scale != 1 {
			t.Fatalf("degraded scale = %g, want 1", scale)
		}
		seen[e.Ref] = true
	}
	if len(seen) != 4 {
		t.Fatalf("uniform fallback visited %d of 4 refs", len(seen))
	}
}

// TestISStateConcurrent exercises the documented concurrency contract
// under the race detector: ingest goroutines calling
// Observe/EvictBefore/Rebuild/Len while worker goroutines sample
// continuously.
func TestISStateConcurrent(t *testing.T) {
	s := NewISState(256, 64, 1)
	const (
		ingesters = 2
		samplers  = 4
		perG      = 20_000
	)
	var wg sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(100 + g))
			for i := 0; i < perG; i++ {
				ref := int64(g*perG + i)
				s.Observe(ref, rng.Float64()*10)
				switch i % 1000 {
				case 250:
					s.EvictBefore(ref - 5000)
				case 500:
					s.Rebuild()
				case 750:
					_ = s.Len()
				}
			}
		}(g)
	}
	var sampled [samplers]int64
	for g := 0; g < samplers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(200 + g))
			for i := 0; i < perG; i++ {
				if e, scale, ok := s.Sample(rng); ok {
					if e.W < 0 || math.IsNaN(scale) {
						t.Errorf("inconsistent sample: %+v scale %g", e, scale)
						return
					}
					sampled[g]++
				}
				if _, ok := s.SampleUniform(rng); ok {
					sampled[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, n := range sampled {
		total += n
	}
	if total == 0 {
		t.Fatal("samplers never succeeded despite concurrent rebuilds")
	}
}
