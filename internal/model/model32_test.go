package model

import (
	"math"
	"sync"
	"testing"
)

// The shared basic-ops battery uses only float32-exact values, so the
// f32 models must pass it verbatim.
func TestAtomic32BasicOps(t *testing.T)      { testBasicOps(t, NewAtomic32(8)) }
func TestRacy32BasicOps(t *testing.T)        { testBasicOps(t, NewRacy32(8)) }
func TestRacy32BlockedBasicOps(t *testing.T) { testBasicOps(t, NewRacy32Blocked(8)) }

func TestRacy32SlotIsBijective(t *testing.T) {
	// Every logical coordinate must own a distinct physical slot inside
	// the padded backing slice — otherwise blocked training silently
	// aliases features.
	for _, dim := range []int{1, 15, 16, 17, 100, 1000} {
		m := NewRacy32Blocked(dim)
		seen := make(map[int32]int32, dim)
		for j := int32(0); j < int32(dim); j++ {
			s := m.Slot(j)
			if s < 0 || int(s) >= len(m.Raw32()) {
				t.Fatalf("dim %d: Slot(%d) = %d outside backing [0,%d)", dim, j, s, len(m.Raw32()))
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("dim %d: Slot(%d) = Slot(%d) = %d", dim, j, prev, s)
			}
			seen[s] = j
		}
	}
}

func TestRacy32BlockedScattersAdjacentCoordinates(t *testing.T) {
	// The point of the layout: id-adjacent coordinates must land on
	// distinct 64-byte lines (≥ 16 float32 apart) once dim spans
	// multiple lines.
	m := NewRacy32Blocked(256)
	for j := int32(0); j < 255; j++ {
		d := m.Slot(j+1) - m.Slot(j)
		if d < 0 {
			d = -d
		}
		if d < lanes32 {
			t.Fatalf("Slot(%d)=%d and Slot(%d)=%d share a cache line", j, m.Slot(j), j+1, m.Slot(j+1))
		}
	}
}

func TestRacy32BlockedSnapshotLoadRoundTrip(t *testing.T) {
	// Snapshot must unpermute: logical order in, logical order out.
	const dim = 100
	src := make([]float64, dim)
	for j := range src {
		src[j] = float64(j) + 0.5 // float32-exact
	}
	m := NewRacy32Blocked(dim)
	m.Load(src)
	got := m.Snapshot(nil)
	for j := range src {
		if got[j] != src[j] {
			t.Fatalf("round trip [%d] = %g, want %g", j, got[j], src[j])
		}
	}
	// And physical storage must actually be permuted, not identity.
	raw := m.Raw32()
	if float64(raw[1]) == src[1] {
		t.Fatal("blocked layout left coordinate 1 in place; scatter not applied")
	}
}

func TestRacy32RemapInto(t *testing.T) {
	m := NewRacy32Blocked(64)
	idx := []int32{0, 17, 63, 5}
	dst := make([]int32, 8)
	out := m.RemapInto(dst, idx)
	if len(out) != len(idx) || &out[0] != &dst[0] {
		t.Fatal("RemapInto must return a prefix of dst")
	}
	for k, j := range idx {
		if out[k] != m.Slot(j) {
			t.Fatalf("RemapInto[%d] = %d, want Slot(%d) = %d", k, out[k], j, m.Slot(j))
		}
	}
	// Flat models remap to identity.
	f := NewRacy32(64)
	out = f.RemapInto(dst, idx)
	for k, j := range idx {
		if out[k] != j {
			t.Fatalf("flat RemapInto[%d] = %d, want %d", k, out[k], j)
		}
	}
}

func TestSnapshotLoadRoundTrip32(t *testing.T) {
	// Values round through float32 exactly once: Snapshot must return
	// float64(float32(v)).
	src := []float64{0.5, -1, math.Pi, 0, 42}
	for _, k := range []Kind{KindAtomic32, KindRacy32, KindRacy32Blocked} {
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
	m, ok := New(KindRacy32Blocked, 3).(*Racy32)
	if !ok || !m.Blocked() {
		t.Fatal("New(KindRacy32Blocked) did not produce a blocked Racy32")
	}
	if KindAtomic32.String() != "atomic32" || KindRacy32.String() != "racy32" ||
		KindRacy32Blocked.String() != "racy32-blocked" {
		t.Fatal("Kind.String mismatch for f32 kinds")
	}
	for _, k := range []Kind{KindAtomic32, KindRacy32, KindRacy32Blocked} {
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
