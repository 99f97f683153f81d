// Package snapshot is the versioned model-publication pipeline: an
// immutable, sequence-numbered weight snapshot (Version) and a
// single-writer/many-reader Store built on an atomic pointer, so the
// serving read path is two atomic loads — no locks, no allocation — while
// a training job keeps publishing fresher versions underneath it.
//
// The design leans on the same snapshot-tolerance argument the paper's
// perturbed-iterate analysis makes for training reads: a version cut
// mid-training (model.Params.Snapshot is documented to be an
// inconsistent cut under concurrent Hogwild writers) is still a valid
// model to serve, exactly as it is a valid point to evaluate. Publication
// is therefore allowed — encouraged — while workers are still updating
// the model.
//
// Reclamation: a version anyone was handed — by Load, Wait, the publish
// hook or a return value — is never written again and goes to the
// garbage collector once it is retired, because lock-free readers may
// hold it across any number of later publishes. A version retired before
// anyone was handed it cannot be held by anyone, so the store keeps it
// (struct and weights) as a one-slot spare and the next publish of the
// same length cuts into it instead of allocating. A producer whose
// versions are rarely read (the stream trainer under an evaluator that
// loads one version in sixteen) therefore allocates one buffer per
// version read rather than per version published, and skips zeroing and
// faulting in a fresh dim-sized slice for the others. PublishChecked
// also tells its fill which version the reused buffer holds (its Seq),
// so a producer that knows what it wrote since that version's cut
// patches only those coordinates instead of copying the whole model.
// Each version records whether it was handed out; the mark costs Load
// one atomic load once it is set (see Load for why that is enough).
package snapshot

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/isasgd/isasgd/internal/model"
)

// Version is one immutable published model snapshot. Weights must never
// be mutated after publication; every reader holding the same *Version
// sees the same weights forever.
type Version struct {
	Seq     uint64 // publication sequence number, 1-based, strictly increasing
	Epoch   int    // completed epochs (batch) or ingested blocks (stream) at the cut
	Iters   int64  // cumulative updates applied at the cut
	Weights []float64

	// At is the wall-clock instant this version entered its store
	// (stamped by install). Replication consumers ship it alongside the
	// weights so a replica can report how far behind the origin's
	// publish it applied — the isasgd_replica_lag_seconds signal.
	At time.Time

	// seen is unseen, claimed or handed: how far the store has gone in
	// handing this version out (see Store.Load). It never decreases, and
	// only a version retired while still unseen is reused.
	seen atomic.Uint32

	// w32 is the lazily narrowed float32 view behind W32; sound to cache
	// precisely because versions are immutable after publication.
	w32     []float32
	w32Once sync.Once
}

// The values of Version.seen.
const (
	unseen  = iota // no one was handed the version: it may be reused once retired
	claimed        // a Load marked it before checking that it was still current
	handed         // someone holds it: it is never written again
)

// Dim returns the snapshot dimensionality.
func (v *Version) Dim() int { return len(v.Weights) }

// W32 returns the weights narrowed to float32, computed once per version
// and cached (versions are immutable, so every caller shares one copy).
// When the producing run trained at float32 (Store.DType reports
// model.PrecisionF32) the published float64 weights are all exactly
// float32-representable, so the narrowed view is lossless: scoring
// against it with float64 accumulation (kernel.DotClampedInts32) is
// bitwise-identical to scoring Weights while moving half the weight
// bytes. Safe for concurrent use; the first call allocates.
func (v *Version) W32() []float32 {
	v.w32Once.Do(func() {
		w := make([]float32, len(v.Weights))
		for j, x := range v.Weights {
			w[j] = float32(x)
		}
		v.w32 = w
	})
	return v.w32
}

// Store is a single-writer/many-reader holder of the current Version.
// Load is wait-free in steady state and lock-free always; Publish
// serializes writers internally, so multiple producers (a training loop
// plus a finalizing job manager) may share one store.
type Store struct {
	cur       atomic.Pointer[Version]
	seq       atomic.Uint64 // cur's Seq, read without touching a version the store may reuse
	mu        sync.Mutex    // serializes writers; readers never take it
	spare     *Version      // guarded by mu: retired before anyone was handed it, reused by the next publish
	onPublish func(*Version)
	onReject  func(epoch int, iters int64)
	rejects   atomic.Int64
	changed   chan struct{} // closed on publish; lazily (re)created under mu
	dtype     atomic.Value  // string; "" means model.PrecisionF64
}

// SetDType records the storage precision of the producing training run:
// model.PrecisionF32 when the weights were trained (and are therefore
// exactly representable) at float32, model.PrecisionF64 otherwise.
// Unrecognized names fall back to f64 — the safe default, since the
// float64 scorer handles any weights. Producers stamp this once before
// (or alongside) their first publish; readers may call DType at any
// time.
func (s *Store) SetDType(dt string) {
	p, err := model.ParsePrecision(dt)
	if err != nil {
		p = model.PrecisionF64
	}
	s.dtype.Store(p)
}

// DType returns the storage precision the producing run declared,
// defaulting to model.PrecisionF64. Serving readers use it to choose the
// half-bandwidth float32 scoring path (Version.W32) when it is lossless.
func (s *Store) DType() string {
	if dt, _ := s.dtype.Load().(string); dt != "" {
		return dt
	}
	return model.PrecisionF64
}

// SetOnPublish installs a hook invoked synchronously after each
// successful publish, on the publisher's goroutine with the writer lock
// held (hooks observe versions in order and must not call back into
// Publish). Serving consumers use it to register a model the moment its
// store becomes servable, independent of any evaluation cadence. The
// hook is handed every version, so a hooked store reuses none of them.
// Install before the first publish.
func (s *Store) SetOnPublish(fn func(*Version)) { s.onPublish = fn }

// SetOnReject installs a hook invoked whenever a publish is rejected for
// non-finite weights, with the epoch/iters the rejected cut carried. A
// rejected publish means serving silently stops advancing while the
// training job looks healthy, so producers (or the job manager owning
// the store) use this to log and count the event. Install before the
// first publish.
func (s *Store) SetOnReject(fn func(epoch int, iters int64)) { s.onReject = fn }

// Rejects returns how many publishes this store has rejected for
// non-finite weights.
func (s *Store) Rejects() int64 { return s.rejects.Load() }

// NewStore returns an empty store; Load reports nil until the first
// publish.
func NewStore() *Store { return &Store{} }

// Of returns a store pre-loaded with a single version copied from w —
// the static case (checkpoint imports, restored models, tests).
func Of(epoch int, iters int64, w []float64) *Store {
	s := NewStore()
	s.PublishCopy(epoch, iters, w)
	return s
}

// Load returns the current version, or nil if nothing was published yet.
// The returned version is immutable and remains valid (and constant)
// regardless of later publishes.
//
// Load marks the version before it returns it, so that the store never
// reuses it. A version already marked handed is returned at once: the
// one extra atomic load of the steady state. Otherwise Load marks it
// claimed, reads cur again, and returns the version only if it is still
// current (marking it handed); if not, it retries. The publisher stores
// cur first and reads the retired version's mark after, and Go's atomics
// are sequentially consistent, so either the second read here sees the
// newer version and this Load drops the old one, or the publisher sees
// the mark and does not reuse it. A claim that loses the race still
// keeps the version from reuse, which costs nothing but one allocation.
// Only a mark set after such a check is trusted without one: a claim
// alone may be made on a version that was retired unseen and is already
// being refilled.
func (s *Store) Load() *Version {
	for {
		if v := s.cur.Load(); s.hand(v) {
			return v
		}
	}
}

// hand reports whether Load may return v, which it read from cur,
// marking v handed when it may.
func (s *Store) hand(v *Version) bool {
	if v == nil || v.seen.Load() == handed {
		return true
	}
	v.seen.CompareAndSwap(unseen, claimed)
	if s.cur.Load() != v {
		return false
	}
	v.seen.Store(handed)
	return true
}

// Seq returns the current publication sequence number (0 before the
// first publish).
func (s *Store) Seq() uint64 { return s.seq.Load() }

// Publish cuts a new version: fill receives a buffer sized like the
// previous version's weights (nil on the first publish — fill is
// expected to allocate then, which model.Params.Snapshot does) and
// returns the filled slice. The buffer may hold the weights of an older
// version that no one was handed, so fill must overwrite all of it. The
// new version becomes visible to Load before Publish returns, with Seq
// one past the previous version's.
//
// A snapshot containing a non-finite weight is rejected (Publish
// returns nil and the store keeps its current version): mid-training
// inconsistency is tolerated, divergence is not — a run whose weights
// went NaN/Inf must not reach serving readers. The training loop itself
// detects the divergence at completion (core.Train's finiteness
// check) and fails the run, which withdraws the live model.
//
// The returned version counts as handed out: it is never reused.
func (s *Store) Publish(epoch int, iters int64, fill func(dst []float64) []float64) *Version {
	return s.publish(epoch, iters, true, func(dst []float64, _ uint64) ([]float64, bool) {
		w := fill(dst)
		return w, model.FirstNonFinite(w) < 0
	})
}

// PublishChecked is Publish for a producer that checks finiteness while
// it copies (model.Params.SnapshotRange does): fill also reports whether
// every weight it returns is finite, and the store takes its word
// instead of scanning the weights a second time. A false report rejects
// the version exactly as Publish does.
//
// held is the Seq of the version whose weights dst holds: the spare's,
// when the store hands fill a retired buffer, and 0 when dst is nil or
// freshly made (all zeros). A producer that knows which coordinates
// changed since cut held may overwrite only those; with held 0 it must
// overwrite all of dst, as Publish's fill does.
//
// It returns the Seq of the version it installed, or 0 when fill
// rejected the cut, and returns no version: one that no reader loads
// before the next publish is reused by it.
func (s *Store) PublishChecked(epoch int, iters int64, fill func(dst []float64, held uint64) (w []float64, finite bool)) uint64 {
	if v := s.publish(epoch, iters, false, fill); v != nil {
		return v.Seq
	}
	return 0
}

// publish cuts and installs one version under the writer lock, into the
// spare's weights when their length is the current version's, telling
// fill the spare's Seq then. handOut marks the version handed before
// anyone else can reach it, for callers that return it. A rejected cut
// drops the buffer fill was given.
func (s *Store) publish(epoch int, iters int64, handOut bool, fill func(dst []float64, held uint64) ([]float64, bool)) *Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.spare
	s.spare = nil
	prev := s.cur.Load()
	var seq, held uint64 = 1, 0
	var dst []float64
	if prev != nil {
		seq = prev.Seq + 1
		if v != nil && len(v.Weights) == len(prev.Weights) {
			dst, held = v.Weights, v.Seq
		} else {
			dst = make([]float64, len(prev.Weights))
		}
	}
	w, finite := fill(dst, held)
	if !finite {
		s.reject(epoch, iters)
		return nil
	}
	if v == nil {
		v = new(Version)
	}
	v.Seq, v.Epoch, v.Iters, v.Weights = seq, epoch, iters, w
	if handOut {
		v.seen.Store(handed)
	}
	s.install(v)
	return v
}

// reject counts a refused cut and tells the reject hook.
func (s *Store) reject(epoch int, iters int64) {
	s.rejects.Add(1)
	if s.onReject != nil {
		s.onReject(epoch, iters)
	}
}

// install makes v the current version, keeps the retired one as the
// spare if no one was handed it, and wakes long-poll waiters. Caller
// holds s.mu.
func (s *Store) install(v *Version) {
	v.At = time.Now()
	if s.onPublish != nil {
		v.seen.Store(handed)
	}
	// Store cur first, read the retired version's mark after: the order
	// Load's argument rests on.
	prev := s.cur.Swap(v)
	s.seq.Store(v.Seq)
	if prev != nil && prev.seen.Load() == unseen {
		s.spare = prev
	}
	if s.changed != nil {
		close(s.changed)
		s.changed = nil
	}
	if s.onPublish != nil {
		s.onPublish(v)
	}
}

// Restore seeds the store with a version at an explicit sequence number —
// the resume path: a restarted coordinator or job manager re-publishes
// its checkpointed weights at the checkpointed seq, so consumers that
// long-poll "give me anything newer than seq" resume exactly where they
// left off instead of re-observing history from 1. Restore refuses to
// move the sequence backwards and applies the same non-finite rejection
// as Publish.
//
// The store takes ownership of w: the version's Weights is w itself, so
// the caller must not write to it afterwards (a caller that keeps
// working on its vector passes a copy). The returned version counts as
// handed out.
func (s *Store) Restore(seq uint64, epoch int, iters int64, w []float64) (*Version, error) {
	if seq == 0 {
		return nil, fmt.Errorf("snapshot: Restore needs seq >= 1")
	}
	if j := model.FirstNonFinite(w); j >= 0 {
		s.reject(epoch, iters)
		return nil, fmt.Errorf("snapshot: non-finite weight %g at coordinate %d", w[j], j)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev := s.cur.Load(); prev != nil && prev.Seq >= seq {
		return nil, fmt.Errorf("snapshot: Restore seq %d would not advance current seq %d", seq, prev.Seq)
	}
	v := &Version{Seq: seq, Epoch: epoch, Iters: iters, Weights: w}
	v.seen.Store(handed)
	s.install(v)
	return v, nil
}

// Wait blocks until the store holds a version with Seq > since (returning
// it) or ctx is done (returning nil) — the long-poll primitive behind
// the cluster pull endpoint. A satisfying version is returned
// immediately without blocking; concurrent waiters are all woken by the
// publish that satisfies them. Like Load, Wait marks what it returns as
// handed out.
func (s *Store) Wait(ctx context.Context, since uint64) *Version {
	for {
		s.mu.Lock()
		v := s.cur.Load()
		if v != nil && v.Seq > since {
			v.seen.Store(handed)
			s.mu.Unlock()
			return v
		}
		if s.changed == nil {
			s.changed = make(chan struct{})
		}
		ch := s.changed
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil
		case <-ch:
		}
	}
}

// PublishCopy is Publish with the weights copied from w; the caller
// keeps ownership of w.
func (s *Store) PublishCopy(epoch int, iters int64, w []float64) *Version {
	return s.Publish(epoch, iters, func(dst []float64) []float64 {
		if len(dst) != len(w) {
			dst = make([]float64, len(w))
		}
		copy(dst, w)
		return dst
	})
}
