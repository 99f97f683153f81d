// Package snapshot is the versioned model-publication pipeline: an
// immutable, sequence-numbered weight snapshot (Version) and a
// single-writer/many-reader Store built on an atomic pointer, so the
// serving read path is one atomic load — no locks, no allocation — while
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
// Reclamation: a retired Version is released to the garbage collector,
// not recycled, because lock-free readers may hold a *Version across an
// arbitrary number of later publishes; proving quiescence would need
// per-read tracking (hazard pointers, epochs) whose cost lands on the hot
// read path. Publication is the cold path — one O(dim) copy per epoch or
// block — so the GC trade keeps the fast path fast.
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

	// w32 is the lazily narrowed float32 view behind W32; sound to cache
	// precisely because versions are immutable after publication.
	w32     []float32
	w32Once sync.Once
}

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
// Load is wait-free (one atomic pointer load); Publish serializes
// writers internally, so multiple producers (a training loop plus a
// finalizing job manager) may share one store.
type Store struct {
	cur       atomic.Pointer[Version]
	mu        sync.Mutex // serializes writers; readers never take it
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
// store becomes servable, independent of any evaluation cadence.
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
func (s *Store) Load() *Version { return s.cur.Load() }

// Seq returns the current publication sequence number (0 before the
// first publish).
func (s *Store) Seq() uint64 {
	if v := s.cur.Load(); v != nil {
		return v.Seq
	}
	return 0
}

// Publish cuts a new version: fill receives a buffer sized like the
// previous version's weights (nil on the first publish — fill is
// expected to allocate then, which model.Params.Snapshot does) and
// returns the filled slice. The new version becomes visible to Load
// before Publish returns, with Seq one past the previous version's.
//
// A snapshot containing a non-finite weight is rejected (Publish
// returns nil and the store keeps its current version): mid-training
// inconsistency is tolerated, divergence is not — a run whose weights
// went NaN/Inf must not reach serving readers. The training loop itself
// detects the divergence at completion (solver.Train's finiteness
// check) and fails the run, which withdraws the live model.
func (s *Store) Publish(epoch int, iters int64, fill func(dst []float64) []float64) *Version {
	return s.PublishChecked(epoch, iters, func(dst []float64) ([]float64, bool) {
		w := fill(dst)
		return w, model.FirstNonFinite(w) < 0
	})
}

// PublishChecked is Publish for a producer that checks finiteness while
// it copies (model.Params.SnapshotRange does): fill also reports whether
// every weight it returns is finite, and the store takes its word
// instead of scanning the weights a second time. A false report rejects
// the version exactly as Publish does.
func (s *Store) PublishChecked(epoch int, iters int64, fill func(dst []float64) (w []float64, finite bool)) *Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.cur.Load()
	var seq uint64 = 1
	var dst []float64
	if prev != nil {
		seq = prev.Seq + 1
		// A fresh buffer per publish: prev.Weights may still be referenced
		// by readers (see the package comment on reclamation).
		dst = make([]float64, len(prev.Weights))
	}
	w, finite := fill(dst)
	if !finite {
		s.rejects.Add(1)
		if s.onReject != nil {
			s.onReject(epoch, iters)
		}
		return nil
	}
	v := &Version{Seq: seq, Epoch: epoch, Iters: iters, Weights: w}
	s.install(v)
	return v
}

// install makes v the current version and wakes long-poll waiters.
// Caller holds s.mu.
func (s *Store) install(v *Version) {
	if v.At.IsZero() {
		v.At = time.Now()
	}
	s.cur.Store(v)
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
func (s *Store) Restore(seq uint64, epoch int, iters int64, w []float64) (*Version, error) {
	if seq == 0 {
		return nil, fmt.Errorf("snapshot: Restore needs seq >= 1")
	}
	if j := model.FirstNonFinite(w); j >= 0 {
		s.rejects.Add(1)
		if s.onReject != nil {
			s.onReject(epoch, iters)
		}
		return nil, fmt.Errorf("snapshot: non-finite weight %g at coordinate %d", w[j], j)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev := s.cur.Load(); prev != nil && prev.Seq >= seq {
		return nil, fmt.Errorf("snapshot: Restore seq %d would not advance current seq %d", seq, prev.Seq)
	}
	v := &Version{Seq: seq, Epoch: epoch, Iters: iters, Weights: append([]float64(nil), w...)}
	s.install(v)
	return v, nil
}

// Wait blocks until the store holds a version with Seq > since (returning
// it) or ctx is done (returning nil) — the long-poll primitive behind
// the cluster pull endpoint. A satisfying version is returned
// immediately without blocking; concurrent waiters are all woken by the
// publish that satisfies them.
func (s *Store) Wait(ctx context.Context, since uint64) *Version {
	for {
		s.mu.Lock()
		v := s.cur.Load()
		if v != nil && v.Seq > since {
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
