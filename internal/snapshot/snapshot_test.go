package snapshot

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStoreEmpty(t *testing.T) {
	s := NewStore()
	if v := s.Load(); v != nil {
		t.Fatalf("empty store Load = %+v, want nil", v)
	}
	if got := s.Seq(); got != 0 {
		t.Fatalf("empty store Seq = %d, want 0", got)
	}
}

func TestPublishSequence(t *testing.T) {
	s := NewStore()
	v1 := s.PublishCopy(0, 0, []float64{1, 2})
	if v1.Seq != 1 || v1.Epoch != 0 || v1.Dim() != 2 {
		t.Fatalf("first version = %+v", v1)
	}
	v2 := s.Publish(3, 42, func(dst []float64) []float64 {
		if len(dst) != 2 {
			t.Fatalf("fill got buffer of len %d, want 2", len(dst))
		}
		dst[0], dst[1] = 5, 6
		return dst
	})
	if v2.Seq != 2 || v2.Epoch != 3 || v2.Iters != 42 {
		t.Fatalf("second version = %+v", v2)
	}
	if got := s.Load(); got != v2 {
		t.Fatalf("Load = %p, want latest %p", got, v2)
	}
	// The first version is immutable: its weights survived the publish.
	if v1.Weights[0] != 1 || v1.Weights[1] != 2 {
		t.Fatalf("retired version mutated: %v", v1.Weights)
	}
	if s.Seq() != 2 {
		t.Fatalf("Seq = %d, want 2", s.Seq())
	}
}

func TestPublishCopyDoesNotAlias(t *testing.T) {
	w := []float64{7, 7}
	s := Of(1, 10, w)
	w[0] = -1
	if got := s.Load().Weights[0]; got != 7 {
		t.Fatalf("published weights alias the caller's slice: %g", got)
	}
}

func TestPublishRejectsNonFinite(t *testing.T) {
	s := Of(1, 1, []float64{1, 2})
	if v := s.PublishCopy(2, 2, []float64{1, math.NaN()}); v != nil {
		t.Fatalf("NaN snapshot published: %+v", v)
	}
	if v := s.PublishCopy(2, 2, []float64{math.Inf(1), 0}); v != nil {
		t.Fatalf("Inf snapshot published: %+v", v)
	}
	// The store kept its last finite version.
	if v := s.Load(); v == nil || v.Seq != 1 || v.Weights[0] != 1 {
		t.Fatalf("store lost its finite version: %+v", v)
	}
	// Finite publishes keep working, with Seq continuing from the kept
	// version.
	if v := s.PublishCopy(3, 3, []float64{5, 6}); v == nil || v.Seq != 2 {
		t.Fatalf("finite publish after rejection = %+v, want seq 2", v)
	}
}

func TestPublishCopyDimChange(t *testing.T) {
	s := Of(0, 0, []float64{1})
	v := s.PublishCopy(1, 1, []float64{1, 2, 3})
	if v.Dim() != 3 {
		t.Fatalf("dim after grow = %d, want 3", v.Dim())
	}
}

// TestConcurrentReaders hammers the single-writer/many-reader contract
// under the race detector: one goroutine publishes versions whose
// weights all equal the version's Epoch, readers assert every loaded
// version is internally consistent (no torn weights, Seq matching) and
// that Seq never goes backwards.
func TestConcurrentReaders(t *testing.T) {
	const dim = 64
	s := NewStore()
	var stop atomic.Bool
	var writer, readers sync.WaitGroup

	writer.Add(1)
	go func() {
		defer writer.Done()
		buf := make([]float64, dim)
		for e := 1; !stop.Load(); e++ {
			for i := range buf {
				buf[i] = float64(e)
			}
			s.PublishCopy(e, int64(e), buf)
		}
	}()

	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastSeq uint64
			for n := 0; n < 20000; n++ {
				v := s.Load()
				if v == nil {
					continue
				}
				if v.Seq < lastSeq {
					t.Errorf("Seq went backwards: %d after %d", v.Seq, lastSeq)
					return
				}
				lastSeq = v.Seq
				want := float64(v.Epoch)
				for i := 0; i < dim; i += 17 {
					if v.Weights[i] != want {
						t.Errorf("torn read: weights[%d]=%g in epoch-%d version", i, v.Weights[i], v.Epoch)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	writer.Wait()
}

func TestRejectAccounting(t *testing.T) {
	s := NewStore()
	var gotEpoch int
	var gotIters int64
	s.SetOnReject(func(epoch int, iters int64) { gotEpoch, gotIters = epoch, iters })
	if v := s.PublishCopy(7, 99, []float64{1, math.NaN()}); v != nil {
		t.Fatalf("non-finite publish returned %+v, want nil", v)
	}
	if s.Rejects() != 1 {
		t.Fatalf("Rejects = %d, want 1", s.Rejects())
	}
	if gotEpoch != 7 || gotIters != 99 {
		t.Fatalf("onReject got (%d, %d), want (7, 99)", gotEpoch, gotIters)
	}
	if v := s.PublishCopy(8, 100, []float64{1, 2}); v == nil || v.Seq != 1 {
		t.Fatalf("finite publish after reject = %+v, want seq 1", v)
	}
	if s.Rejects() != 1 {
		t.Fatalf("Rejects after good publish = %d, want 1", s.Rejects())
	}
}

func TestRestore(t *testing.T) {
	s := NewStore()
	if _, err := s.Restore(0, 0, 0, []float64{1}); err == nil {
		t.Fatal("Restore(seq=0) succeeded, want error")
	}
	if _, err := s.Restore(1, 0, 0, []float64{math.Inf(1)}); err == nil {
		t.Fatal("Restore with non-finite weights succeeded, want error")
	}
	w := []float64{1, 2}
	v, err := s.Restore(41, 5, 500, w)
	if err != nil {
		t.Fatal(err)
	}
	if v.Seq != 41 || s.Seq() != 41 {
		t.Fatalf("restored seq = %d / %d, want 41", v.Seq, s.Seq())
	}
	if &v.Weights[0] != &w[0] {
		t.Fatal("Restore copied the weights; want the caller's slice kept")
	}
	// Publishes continue past the restored seq.
	if v2 := s.PublishCopy(6, 600, []float64{3, 4}); v2.Seq != 42 {
		t.Fatalf("post-restore publish seq = %d, want 42", v2.Seq)
	}
	// Restore never moves the sequence backwards.
	if _, err := s.Restore(10, 0, 0, []float64{1, 2}); err == nil {
		t.Fatal("backwards Restore succeeded, want error")
	}
}

func TestWaitImmediateAndBlocking(t *testing.T) {
	s := NewStore()
	s.PublishCopy(1, 1, []float64{1})

	// Satisfied immediately: current seq 1 > since 0.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if v := s.Wait(ctx, 0); v == nil || v.Seq != 1 {
		t.Fatalf("Wait(0) = %+v, want seq 1", v)
	}

	// Blocks until the next publish; all waiters wake.
	const waiters = 4
	var wg sync.WaitGroup
	got := make([]uint64, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if v := s.Wait(ctx, 1); v != nil {
				got[i] = v.Seq
			}
		}(i)
	}
	// Give the waiters a moment to park, then publish.
	time.Sleep(10 * time.Millisecond)
	s.PublishCopy(2, 2, []float64{2})
	wg.Wait()
	for i, seq := range got {
		if seq != 2 {
			t.Fatalf("waiter %d woke with seq %d, want 2", i, seq)
		}
	}

	// Cancelled context returns nil.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if v := s.Wait(done, 99); v != nil {
		t.Fatalf("Wait on cancelled ctx = %+v, want nil", v)
	}
}

// TestPublishCheckedTrustsTheProducer: a producer that checked while it
// copied reports the verdict, and a negative one is a rejection exactly
// like Publish's own.
func TestPublishCheckedTrustsTheProducer(t *testing.T) {
	s := NewStore()
	var rejected []int
	s.SetOnReject(func(epoch int, _ int64) { rejected = append(rejected, epoch) })
	fill := func(finite bool) func([]float64, uint64) ([]float64, bool) {
		return func(dst []float64, _ uint64) ([]float64, bool) { return append(dst[:0], 1, 2, 3), finite }
	}
	if seq := s.PublishChecked(1, 10, fill(true)); seq != 1 {
		t.Fatalf("finite checked publish returned seq %d, want 1", seq)
	}
	if v := s.Load(); v == nil || v.Seq != 1 || len(v.Weights) != 3 {
		t.Fatalf("checked publish = %+v", v)
	}
	if seq := s.PublishChecked(2, 20, fill(false)); seq != 0 {
		t.Fatalf("producer reported non-finite weights, store published seq %d", seq)
	}
	if s.Seq() != 1 || s.Rejects() != 1 || len(rejected) != 1 || rejected[0] != 2 {
		t.Fatalf("after the refusal: seq %d, rejects %d, hook saw %v", s.Seq(), s.Rejects(), rejected)
	}
	if seq := s.PublishChecked(3, 30, fill(true)); seq != 2 {
		t.Fatalf("publish after a refusal returned seq %d, want 2", seq)
	}
	if v := s.Load(); v.Seq != 2 || v.Epoch != 3 {
		t.Fatalf("publish after a refusal = %+v", v)
	}
}

// fillSeq is a checked fill that writes seq into every coordinate of a
// dim-long buffer, reusing dst when it has the length.
func fillSeq(dim int, seq uint64) func([]float64, uint64) ([]float64, bool) {
	return func(dst []float64, _ uint64) ([]float64, bool) {
		if len(dst) != dim {
			dst = make([]float64, dim)
		}
		for j := range dst {
			dst[j] = float64(seq)
		}
		return dst, true
	}
}

// TestPublishCheckedReusesUnseen: a version retired before anyone was
// handed it lends its buffer to the next cut, which finds the older
// weights there; a version a reader loaded, a hook saw, or a return
// value handed out is never given to a cut again.
func TestPublishCheckedReusesUnseen(t *testing.T) {
	const dim = 4
	s := NewStore()
	var got []float64 // the dst of the latest cut
	cut := func(seq uint64) uint64 {
		return s.PublishChecked(int(seq), 0, func(dst []float64, held uint64) ([]float64, bool) {
			got = append(got[:0], dst...)
			return fillSeq(dim, seq)(dst, held)
		})
	}
	cut(1)
	cut(2) // version 1 retires unseen: the spare
	cut(3) // cut into version 1's buffer
	if len(got) != dim || got[0] != 1 {
		t.Fatalf("third cut's buffer = %v, want version 1's weights", got)
	}
	held := s.Load() // version 3, handed
	cut(4)
	cut(5) // version 4 retired unseen; version 3 stays held
	cut(6)
	if got[0] != 4 {
		t.Fatalf("sixth cut's buffer = %v, want version 4's weights", got)
	}
	for j, w := range held.Weights {
		if held.Seq != 3 || w != 3 {
			t.Fatalf("held version %d written again: weights[%d] = %g", held.Seq, j, w)
		}
	}

	// A hooked store hands every version out, so nothing is reused.
	hooked := NewStore()
	var seen []*Version
	hooked.SetOnPublish(func(v *Version) { seen = append(seen, v) })
	for seq := uint64(1); seq <= 4; seq++ {
		hooked.PublishChecked(int(seq), 0, fillSeq(dim, seq))
	}
	for _, v := range seen {
		if v.Weights[0] != float64(v.Seq) {
			t.Fatalf("hooked version %d written again: %v", v.Seq, v.Weights)
		}
	}
}

// TestPublishCheckedHeld: fill is told which version its buffer holds —
// the spare's Seq when the store reuses one, 0 on the first publish and
// whenever the buffer is fresh (after a loaded version, a rejected cut or
// a change of length) — and a reused buffer holds exactly that
// version's weights.
func TestPublishCheckedHeld(t *testing.T) {
	const dim = 3
	s := NewStore()
	var held []uint64
	cut := func(n int, finite bool) uint64 {
		return s.PublishChecked(0, 0, func(dst []float64, h uint64) ([]float64, bool) {
			held = append(held, h)
			if h != 0 && dst[0] != float64(h) {
				t.Fatalf("told the buffer holds version %d, it holds %v", h, dst)
			}
			if h == 0 {
				for _, w := range dst {
					if w != 0 {
						t.Fatalf("fresh buffer holds %v", dst)
					}
				}
			}
			seq := s.Seq() + 1
			w, _ := fillSeq(n, seq)(dst, h)
			return w, finite
		})
	}
	steps := []struct {
		dim    int
		finite bool
		load   bool
		seq    uint64 // PublishChecked's return
	}{
		{dim, true, false, 1},      // first: nil buffer
		{dim, true, false, 2},      // no spare yet: fresh
		{dim, true, false, 3},      // version 1's buffer
		{dim, true, true, 4},       // version 2's; then version 4 is loaded
		{dim, true, false, 5},      // version 3's
		{dim, true, false, 6},      // version 4 was handed: fresh
		{dim, false, false, 0},     // version 5's, then rejected and dropped
		{dim, true, false, 7},      // fresh
		{dim, true, false, 8},      // version 6's
		{dim + 1, true, false, 9},  // version 7's, which fill leaves for a longer one
		{dim + 1, true, false, 10}, // version 8 is shorter than version 9: fresh
	}
	want := []uint64{0, 0, 1, 2, 3, 0, 5, 0, 6, 7, 0}
	for i, st := range steps {
		if got := cut(st.dim, st.finite); got != st.seq {
			t.Fatalf("publish %d returned seq %d, want %d", i+1, got, st.seq)
		}
		if st.load {
			s.Load()
		}
	}
	for i := range want {
		if held[i] != want[i] {
			t.Fatalf("held per publish = %v, want %v", held, want)
		}
	}
}

// TestStaleClaimIsNotTrusted replays the interleaving a concurrent test
// rarely hits: a version retires unseen and becomes the spare, a Load
// that read it from cur before the publish claims it, finds it stale and
// drops it, and a second Load that read it just as early must not take
// the claim for a hand-out, because the next cut refills that buffer.
func TestStaleClaimIsNotTrusted(t *testing.T) {
	s := NewStore()
	s.PublishChecked(1, 1, fillSeq(2, 1))
	early := s.cur.Load() // what both Loads read before the next publish
	s.PublishChecked(2, 2, fillSeq(2, 2))
	if s.spare != early {
		t.Fatal("version 1 retired unseen but is not the spare")
	}
	if s.hand(early) {
		t.Fatal("first Load returned a retired version")
	}
	if s.hand(early) {
		t.Fatal("second Load trusted a stale claim on the spare")
	}
	if v := s.Load(); v.Seq != 2 || v.Weights[0] != 2 {
		t.Fatalf("Load = %+v, want version 2", v)
	}
}

// TestConcurrentReadersChecked is TestConcurrentReaders through the
// reusing path: the writer cuts with PublishChecked, whose fill writes
// the seq into every coordinate, while readers load versions by Load and
// Wait, hold each across later publishes, and check every weight again
// before they drop it. A version reused while a reader held it shows up
// as a weight that is not its own seq (and, under -race, as a race).
func TestConcurrentReadersChecked(t *testing.T) {
	const dim, hold = 256, 4
	s := NewStore()
	var stop atomic.Bool
	var writer, readers sync.WaitGroup

	writer.Add(1)
	go func() {
		defer writer.Done()
		for !stop.Load() {
			seq := s.Seq() + 1
			s.PublishChecked(int(seq), int64(seq), fillSeq(dim, seq))
		}
	}()

	check := func(v *Version) bool {
		seq := v.Seq
		for j, w := range v.Weights {
			if w != float64(seq) {
				t.Errorf("version %d written after it was handed out: weights[%d] = %g", seq, j, w)
				return false
			}
		}
		return true
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var held [hold]*Version
			var lastSeq uint64
			for n := 0; n < 4000; n++ {
				var v *Version
				if r%2 == 0 {
					v = s.Load()
				} else {
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					v = s.Wait(ctx, lastSeq)
					cancel()
				}
				if v == nil {
					continue
				}
				if v.Seq < lastSeq {
					t.Errorf("Seq went backwards: %d after %d", v.Seq, lastSeq)
					return
				}
				lastSeq = v.Seq
				if old := held[n%hold]; old != nil && !check(old) {
					return
				}
				if !check(v) {
					return
				}
				held[n%hold] = v
			}
			for _, v := range held {
				if v != nil && !check(v) {
					return
				}
			}
		}(r)
	}
	readers.Wait()
	stop.Store(true)
	writer.Wait()
}

// TestPublishCheckedAllocs: a steady-state checked publish that no
// reader loads allocates nothing; when every version is loaded, each
// publish allocates one Version and one buffer.
func TestPublishCheckedAllocs(t *testing.T) {
	const dim = 1 << 10
	s := NewStore()
	seq := uint64(0)
	fill := func(dst []float64, _ uint64) ([]float64, bool) {
		if len(dst) != dim {
			dst = make([]float64, dim)
		}
		for j := range dst {
			dst[j] = float64(seq)
		}
		return dst, true
	}
	publish := func() {
		seq++
		s.PublishChecked(int(seq), int64(seq), fill)
	}
	publish()
	publish()
	if n := testing.AllocsPerRun(100, publish); n != 0 {
		t.Fatalf("unloaded checked publish: %g allocations, want 0", n)
	}
	loaded := func() { publish(); s.Load() }
	loaded() // the spare the unloaded publishes left behind is used up here
	if n := testing.AllocsPerRun(100, loaded); n != 2 {
		t.Fatalf("loaded checked publish: %g allocations, want 2 (the version and its buffer)", n)
	}
}

// BenchmarkPublish times one checked publish of a dim-600 000 model (the
// stream benchmark's size), copying from a model-sized source: unseen,
// where no reader loads a version and the store reuses the retired
// buffer, and seen, where every version is loaded and each publish
// allocates its own.
func BenchmarkPublish(b *testing.B) {
	const dim = 600_000
	src := make([]float64, dim)
	for j := range src {
		src[j] = float64(j)
	}
	fill := func(dst []float64, _ uint64) ([]float64, bool) {
		if len(dst) != dim {
			dst = make([]float64, dim)
		}
		copy(dst, src)
		return dst, true
	}
	for _, loaded := range []bool{false, true} {
		name := "unseen"
		if loaded {
			name = "seen"
		}
		b.Run(name, func(b *testing.B) {
			s := NewStore()
			b.SetBytes(dim * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.PublishChecked(i, int64(i), fill)
				if loaded {
					s.Load()
				}
			}
		})
	}
}
