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
	v, err := s.Restore(41, 5, 500, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if v.Seq != 41 || s.Seq() != 41 {
		t.Fatalf("restored seq = %d / %d, want 41", v.Seq, s.Seq())
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
	fill := func(finite bool) func([]float64) ([]float64, bool) {
		return func(dst []float64) ([]float64, bool) { return append(dst[:0], 1, 2, 3), finite }
	}
	if v := s.PublishChecked(1, 10, fill(true)); v == nil || v.Seq != 1 || len(v.Weights) != 3 {
		t.Fatalf("checked publish = %+v", v)
	}
	if v := s.PublishChecked(2, 20, fill(false)); v != nil {
		t.Fatalf("producer reported non-finite weights, store published %+v", v)
	}
	if s.Seq() != 1 || s.Rejects() != 1 || len(rejected) != 1 || rejected[0] != 2 {
		t.Fatalf("after the refusal: seq %d, rejects %d, hook saw %v", s.Seq(), s.Rejects(), rejected)
	}
	if v := s.PublishChecked(3, 30, fill(true)); v == nil || v.Seq != 2 || v.Epoch != 3 {
		t.Fatalf("publish after a refusal = %+v", v)
	}
}
