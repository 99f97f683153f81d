package model

import (
	"math"
	"sync"
	"testing"

	"github.com/isasgd/isasgd/internal/xrand"
)

func testBasicOps(t *testing.T, m Params) {
	t.Helper()
	if m.Dim() != 8 {
		t.Fatalf("Dim = %d, want 8", m.Dim())
	}
	for j := int32(0); j < 8; j++ {
		if m.Get(j) != 0 {
			t.Fatalf("fresh model coordinate %d = %g", j, m.Get(j))
		}
	}
	m.Add(3, 1.5)
	m.Add(3, -0.25)
	if got := m.Get(3); got != 1.25 {
		t.Fatalf("Get(3) = %g, want 1.25", got)
	}
	m.Load([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	if got := m.Dot([]int32{0, 2, 7}, []float64{1, 1, 2}); got != 1+3+16 {
		t.Fatalf("Dot = %g, want 20", got)
	}
	snap := m.Snapshot(nil)
	if len(snap) != 8 || snap[7] != 8 {
		t.Fatalf("Snapshot = %v", snap)
	}
	// Snapshot into a reusable buffer.
	buf := make([]float64, 8)
	out := m.Snapshot(buf)
	if &out[0] != &buf[0] {
		t.Fatal("Snapshot reallocated despite sufficient capacity")
	}
}

func TestAtomicBasicOps(t *testing.T) { testBasicOps(t, NewAtomic(8)) }
func TestRacyBasicOps(t *testing.T)   { testBasicOps(t, NewRacy(8)) }

func TestAtomicConcurrentAddsLoseNothing(t *testing.T) {
	// The CAS loop must make Add linearizable: G goroutines adding 1 to
	// every coordinate K times yields exactly G*K.
	const dim, workers, reps = 64, 8, 5000
	m := NewAtomic(dim)
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

func TestAtomicConcurrentMixedAddsSumCorrectly(t *testing.T) {
	// Adds of random magnitudes from multiple goroutines must sum to the
	// same total as sequential execution (addition is commutative but not
	// associative in float64; we use integral values to sidestep rounding).
	const dim, workers, reps = 16, 6, 2000
	m := NewAtomic(dim)
	want := make([]float64, dim)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			local := make([]float64, dim)
			for rep := 0; rep < reps; rep++ {
				j := int32(r.Intn(dim))
				v := float64(r.Intn(9) - 4)
				m.Add(j, v)
				local[j] += v
			}
			mu.Lock()
			for j := range want {
				want[j] += local[j]
			}
			mu.Unlock()
		}(uint64(w) + 1)
	}
	wg.Wait()
	for j := int32(0); j < dim; j++ {
		if got := m.Get(j); got != want[j] {
			t.Fatalf("coordinate %d = %g, want %g", j, got, want[j])
		}
	}
}

func TestRacyConcurrentRoughly(t *testing.T) {
	if RaceEnabled {
		t.Skip("racy model is deliberately unsynchronized; skipped under -race")
	}
	// Hogwild semantics: some updates may be lost, but the total must be
	// positive and no coordinate can exceed the lossless total.
	const dim, workers, reps = 8, 4, 10000
	m := NewRacy(dim)
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

func TestSnapshotLoadRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindAtomic, KindRacy} {
		m := New(k, 5)
		src := []float64{0.5, -1, math.Pi, 0, 42}
		m.Load(src)
		got := m.Snapshot(nil)
		for i := range src {
			if got[i] != src[i] {
				t.Fatalf("%v: round trip [%d] = %g, want %g", k, i, got[i], src[i])
			}
		}
	}
}

func TestNewKinds(t *testing.T) {
	if _, ok := New(KindAtomic, 3).(*Atomic); !ok {
		t.Fatal("New(KindAtomic) wrong type")
	}
	if _, ok := New(KindRacy, 3).(*Racy); !ok {
		t.Fatal("New(KindRacy) wrong type")
	}
	if KindAtomic.String() != "atomic" || KindRacy.String() != "racy" || Kind(9).String() != "unknown" {
		t.Fatal("Kind.String mismatch")
	}
}

func TestRacyRaw(t *testing.T) {
	m := NewRacy(4)
	m.Raw()[2] = 7
	if m.Get(2) != 7 {
		t.Fatal("Raw does not alias the model storage")
	}
}

func TestAtomicDotMatchesRacy(t *testing.T) {
	r := xrand.New(17)
	const dim = 100
	src := make([]float64, dim)
	for i := range src {
		src[i] = r.NormFloat64()
	}
	a, rc := NewAtomic(dim), NewRacy(dim)
	a.Load(src)
	rc.Load(src)
	for trial := 0; trial < 50; trial++ {
		nnz := 1 + r.Intn(20)
		idx := make([]int32, nnz)
		val := make([]float64, nnz)
		for k := range idx {
			idx[k] = int32(r.Intn(dim))
			val[k] = r.NormFloat64()
		}
		da, dr := a.Dot(idx, val), rc.Dot(idx, val)
		if math.Abs(da-dr) > 1e-12 {
			t.Fatalf("Dot mismatch: atomic %g, racy %g", da, dr)
		}
	}
}

func BenchmarkAtomicAdd(b *testing.B) {
	m := NewAtomic(1 << 16)
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(uint64(b.N) + 1)
		for pb.Next() {
			m.Add(int32(r.Intn(1<<16)), 1e-9)
		}
	})
}

func BenchmarkRacyAdd(b *testing.B) {
	if RaceEnabled {
		b.Skip("skipped under -race")
	}
	m := NewRacy(1 << 16)
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(uint64(b.N) + 1)
		for pb.Next() {
			m.Add(int32(r.Intn(1<<16)), 1e-9)
		}
	})
}

func TestFirstNonFinite(t *testing.T) {
	w := make([]float64, 100)
	for j := range w {
		w[j] = float64(j) - 50
	}
	w[3], w[4], w[5] = math.MaxFloat64, -math.SmallestNonzeroFloat64, math.Copysign(0, -1)
	if j := FirstNonFinite(w); j != -1 {
		t.Fatalf("finite vector: FirstNonFinite = %d", j)
	}
	if j := FirstNonFinite(nil); j != -1 {
		t.Fatalf("empty vector: FirstNonFinite = %d", j)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -math.NaN()} {
		for _, at := range []int{0, 57, 99} {
			v := append([]float64(nil), w...)
			v[at], v[99] = bad, math.Inf(1) // the first one is reported, not the last
			if j := FirstNonFinite(v); j != at {
				t.Fatalf("%g at %d: FirstNonFinite = %d", bad, at, j)
			}
		}
	}
}

// TestSnapshotRangeMatchesSnapshot: cutting a quiescent model range by
// range gives the vector Snapshot gives, touches nothing outside the
// range, and reports a non-finite coordinate from exactly the range that
// holds it — for every model kind.
func TestSnapshotRangeMatchesSnapshot(t *testing.T) {
	const dim = 100
	models := map[string]Params{
		"atomic": NewAtomic(dim), "racy": NewRacy(dim),
		"atomic32": NewAtomic32(dim), "racy32": NewRacy32(dim),
	}
	bounds := []int{0, 1, 17, 64, dim}
	for name, m := range models {
		w := make([]float64, dim)
		for j := range w {
			w[j] = float64(j*j-300) / 8 // exact in float32
		}
		for _, bad := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
			const at = 40 // in [17, 64)
			w[at] = bad
			m.Load(w)
			want := m.Snapshot(nil)
			got := make([]float64, dim)
			for r := 0; r+1 < len(bounds); r++ {
				lo, hi := bounds[r], bounds[r+1]
				for j := range got {
					got[j] = -1
				}
				finite := m.SnapshotRange(got, lo, hi)
				if wantFinite := bad == 0 || at < lo || at >= hi; finite != wantFinite {
					t.Fatalf("%s: range [%d,%d) with %g at %d reports finite=%v", name, lo, hi, bad, at, finite)
				}
				for j, x := range got {
					if in := j >= lo && j < hi; in && math.Float64bits(x) != math.Float64bits(want[j]) || !in && x != -1 {
						t.Fatalf("%s: range [%d,%d): dst[%d] = %g, Snapshot has %g", name, lo, hi, j, x, want[j])
					}
				}
			}
		}
	}
}

// TestSnapshotIdxMatchesSnapshotRange: cutting a quiescent model at a
// list of coordinates copies each listed one exactly as a one-wide
// SnapshotRange does, leaves the rest of dst alone, and reports a
// non-finite coordinate exactly when the list holds it — for every model
// kind, with duplicates and out-of-order lists.
func TestSnapshotIdxMatchesSnapshotRange(t *testing.T) {
	const dim, at = 100, 40
	models := map[string]Params{
		"atomic": NewAtomic(dim), "racy": NewRacy(dim),
		"atomic32": NewAtomic32(dim), "racy32": NewRacy32(dim),
	}
	every := make([]int32, dim)
	for j := range every {
		every[j] = int32(j)
	}
	lists := [][]int32{
		nil,
		every,
		{17, 18, 19, 63},
		{99, 3, 40, 3, 0, 40}, // holds at, twice
		{41, 39, 39, 98},
	}
	for name, m := range models {
		w := make([]float64, dim)
		for j := range w {
			w[j] = float64(j*j-300) / 8 // exact in float32
		}
		for _, bad := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
			w[at] = bad
			m.Load(w)
			for _, idx := range lists {
				got, want := make([]float64, dim), make([]float64, dim)
				for j := range got {
					got[j], want[j] = -1, -1
				}
				wantFinite := true
				for _, j := range idx {
					if !m.SnapshotRange(want, int(j), int(j)+1) {
						wantFinite = false
					}
				}
				if finite := m.SnapshotIdx(got, idx); finite != wantFinite {
					t.Fatalf("%s: %v with %g at %d reports finite=%v, want %v", name, idx, bad, at, finite, wantFinite)
				}
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%s: %v: dst[%d] = %g, SnapshotRange gives %g", name, idx, j, got[j], want[j])
					}
				}
			}
		}
	}
}
