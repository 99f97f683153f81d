package model

import (
	"math"
	"sync"
	"testing"
)

// The shared basic-ops battery uses only float32-exact values, so the
// f32 models must pass it verbatim.
func TestAtomic32BasicOps(t *testing.T) { testBasicOps(t, NewAtomic32(8)) }
func TestRacy32BasicOps(t *testing.T)   { testBasicOps(t, NewRacy32(8)) }

func TestSnapshotLoadRoundTrip32(t *testing.T) {
	// Values round through float32 exactly once: Snapshot must return
	// float64(float32(v)).
	src := []float64{0.5, -1, math.Pi, 0, 42}
	for _, k := range []Kind{KindAtomic32, KindRacy32} {
		m := New(k, 5)
		m.Load(src)
		got := m.Snapshot(nil)
		for i := range src {
			if want := float64(float32(src[i])); got[i] != want {
				t.Fatalf("%v: round trip [%d] = %g, want %g", k, i, got[i], want)
			}
		}
	}
}

func TestAtomic32ConcurrentAddsLoseNothing(t *testing.T) {
	// The CAS loop must make Add linearizable. Totals stay ≤ 2^24 so
	// every intermediate sum is float32-exact.
	const dim, workers, reps = 64, 8, 2000
	m := NewAtomic32(dim)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				for j := int32(0); j < dim; j++ {
					m.Add(j, 1)
				}
			}
		}()
	}
	wg.Wait()
	for j := int32(0); j < dim; j++ {
		if got := m.Get(j); got != workers*reps {
			t.Fatalf("coordinate %d = %g, want %d", j, got, workers*reps)
		}
	}
}

func TestRacy32ConcurrentRoughly(t *testing.T) {
	if RaceEnabled {
		t.Skip("racy model is deliberately unsynchronized; skipped under -race")
	}
	const dim, workers, reps = 8, 4, 10000
	m := NewRacy32(dim)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				for j := int32(0); j < dim; j++ {
					m.Add(j, 1)
				}
			}
		}()
	}
	wg.Wait()
	for j := int32(0); j < dim; j++ {
		got := m.Get(j)
		if got <= 0 || got > workers*reps {
			t.Fatalf("coordinate %d = %g outside (0, %d]", j, got, workers*reps)
		}
	}
}

func TestNewKinds32(t *testing.T) {
	if _, ok := New(KindAtomic32, 3).(*Atomic32); !ok {
		t.Fatal("New(KindAtomic32) wrong type")
	}
	if _, ok := New(KindRacy32, 3).(*Racy32); !ok {
		t.Fatal("New(KindRacy32) wrong type")
	}
	if KindAtomic32.String() != "atomic32" || KindRacy32.String() != "racy32" {
		t.Fatal("Kind.String mismatch for f32 kinds")
	}
	for _, k := range []Kind{KindAtomic32, KindRacy32} {
		if !k.Is32() || k.As32() != k {
			t.Fatalf("%v: Is32/As32 mismatch", k)
		}
	}
	if KindAtomic.Is32() || KindRacy.Is32() {
		t.Fatal("f64 kinds must not report Is32")
	}
	if KindAtomic.As32() != KindAtomic32 || KindRacy.As32() != KindRacy32 {
		t.Fatal("As32 must map f64 kinds to their f32 counterparts")
	}
}
