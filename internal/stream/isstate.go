package stream

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/sampling"
	"github.com/isasgd/isasgd/internal/xrand"
)

// Entry is one row reference held by an ISState: the row's global stream
// index and its importance weight (Lipschitz estimate).
type Entry struct {
	Ref int64
	W   float64
}

// aliasTable is one immutable generation of the sampling distribution: an
// alias table over a snapshot of reservoir entries. Sample indexes into
// entries through the alias draw, so a rebuild swaps the whole pointer
// and in-flight draws keep using a consistent (table, entries) pair.
type aliasTable struct {
	alias   *sampling.Alias
	entries []Entry
}

// ISState maintains online per-row importance estimates in bounded
// memory: a reservoir of (row ref, Lipschitz weight) entries fed by
// Observe, and an alias table over the reservoir rebuilt every
// rebuildEvery observations (or on demand) so Sample stays O(1)
// regardless of how many rows have streamed past.
//
// Concurrency: Observe, EvictBefore, Rebuild and Len may be called
// from one or more ingest goroutines while worker goroutines call
// Sample concurrently; the reservoir is mutex-guarded and the alias
// table is published through an atomic pointer, so samplers never block
// ingestion and always see a complete generation.
//
// When the reservoir capacity is at least the number of live rows, the
// reservoir holds every observed row exactly and sampling is exact
// windowed importance sampling; with a smaller capacity it is the
// bounded-memory approximation of Alain et al. (2015): an (approximately
// uniform) subsample of the window, importance-sampled by weight.
type ISState struct {
	cap          int
	rebuildEvery int

	mu           sync.Mutex
	entries      []Entry
	seen         int64 // observations since the last compaction, for reservoir replacement
	rng          *xrand.Rand
	sinceRebuild int

	// win, when set, switches rebuilds to gradient-norm importance:
	// entries are weighed by adaptive.GradWeights over the ‖x‖ and |ℓ'|
	// the trainer's window keeps for their rows, not by their static
	// bounds. The trainer sets it, and rebuilds only between update
	// phases, when nothing writes the window.
	win *window

	// onRebuild, when non-nil, receives each Rebuild's wall-clock cost
	// (snapshot + alias construction + publish). Published atomically so
	// installing or swapping the callback is safe mid-flight.
	onRebuild atomic.Pointer[func(time.Duration)]

	table atomic.Pointer[aliasTable]
}

// NewISState returns a state holding at most capacity entries and
// rebuilding its alias table every rebuildEvery observations;
// rebuildEvery <= 0 disables observation-triggered rebuilds (the caller
// rebuilds explicitly, e.g. once per ingested block). capacity must be
// positive.
func NewISState(capacity, rebuildEvery int, seed uint64) *ISState {
	if capacity < 1 {
		capacity = 1
	}
	return &ISState{
		cap:          capacity,
		rebuildEvery: rebuildEvery,
		rng:          xrand.New(seed),
	}
}

// SetOnRebuild installs a callback receiving each Rebuild's duration —
// the alias-construction cost observability layers chart against
// reservoir size. The slot is atomic, so the callback may be installed,
// replaced, or cleared (nil) while other goroutines observe and rebuild.
func (s *ISState) SetOnRebuild(fn func(time.Duration)) {
	if fn == nil {
		s.onRebuild.Store(nil)
		return
	}
	s.onRebuild.Store(&fn)
}

// Observe records one row's importance weight. Non-finite or negative
// weights are clamped to 0 (the row stays referenced but is never drawn
// once a rebuild happens). When the reservoir is full, the new entry
// replaces a uniformly random slot with probability cap/seen — standard
// reservoir sampling, restarted at each compaction.
func (s *ISState) Observe(ref int64, w float64) {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		w = 0
	}
	s.mu.Lock()
	s.seen++
	if len(s.entries) < s.cap {
		s.entries = append(s.entries, Entry{Ref: ref, W: w})
	} else if slot := s.rng.Uint64n(uint64(s.seen)); slot < uint64(s.cap) {
		s.entries[slot] = Entry{Ref: ref, W: w}
	}
	rebuild := false
	if s.rebuildEvery > 0 {
		s.sinceRebuild++
		if s.sinceRebuild >= s.rebuildEvery {
			s.sinceRebuild = 0
			rebuild = true
		}
	}
	s.mu.Unlock()
	if rebuild {
		s.Rebuild()
	}
}

// EvictBefore drops every reservoir entry with Ref < minRef — the rows
// that slid out of the trainer's window and can no longer be fetched.
// The replacement counter restarts so subsequent observations refill the
// freed capacity deterministically. The alias table is not rebuilt here;
// stale draws are filtered by the caller until the next Rebuild.
func (s *ISState) EvictBefore(minRef int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.entries[:0]
	for _, e := range s.entries {
		if e.Ref >= minRef {
			kept = append(kept, e)
		}
	}
	s.entries = kept
	s.seen = int64(len(kept))
}

// Rebuild constructs a fresh alias table from the current reservoir and
// publishes it atomically. If every live weight is zero (or the
// reservoir is empty) the previous table is withdrawn and Sample falls
// back to uniform draws over the reservoir snapshot.
func (s *ISState) Rebuild() {
	fn := s.onRebuild.Load()
	if fn == nil {
		s.rebuild()
		return
	}
	start := time.Now()
	s.rebuild()
	(*fn)(time.Since(start))
}

func (s *ISState) rebuild() {
	s.mu.Lock()
	snap := make([]Entry, len(s.entries))
	copy(snap, s.entries)
	s.mu.Unlock()

	if len(snap) == 0 {
		s.table.Store(&aliasTable{})
		return
	}
	w := make([]float64, len(snap))
	if win := s.win; win != nil {
		rows := make([]int, len(snap))
		for i, e := range snap {
			rows[i] = int(e.Ref - win.base)
		}
		adaptive.GradWeights(w, rows, win.norm, win.grad)
	} else {
		for i, e := range snap {
			w[i] = e.W
		}
	}
	al, err := sampling.NewAlias(w)
	if err != nil {
		// All-zero weights: publish the snapshot without a distribution;
		// Sample degrades to uniform over it.
		s.table.Store(&aliasTable{entries: snap})
		return
	}
	s.table.Store(&aliasTable{alias: al, entries: snap})
}

// Sample draws one reservoir entry from the published distribution using
// the caller's generator, returning the entry and the importance
// correction 1/(n·p_i) that keeps the update unbiased (Eq. 8). ok is
// false when no table has been published yet or the last published
// snapshot was empty. When the published generation had no usable
// weights, draws are uniform with unit scale.
func (s *ISState) Sample(r *xrand.Rand) (e Entry, scale float64, ok bool) {
	t := s.table.Load()
	if t == nil || len(t.entries) == 0 {
		return Entry{}, 0, false
	}
	if t.alias == nil {
		return t.entries[r.Intn(len(t.entries))], 1, true
	}
	i := t.alias.Sample(r)
	p := t.alias.Prob(i)
	if p <= 0 {
		// Zero-probability buckets are never drawn by a correct alias
		// table; guard against degenerate rounding anyway.
		return t.entries[i], 0, true
	}
	return t.entries[i], 1 / (float64(len(t.entries)) * p), true
}

// SampleUniform draws one reservoir entry uniformly from the published
// snapshot, ignoring weights — the plain-SGD baseline path. ok is false
// when no non-empty snapshot has been published.
func (s *ISState) SampleUniform(r *xrand.Rand) (e Entry, ok bool) {
	t := s.table.Load()
	if t == nil || len(t.entries) == 0 {
		return Entry{}, false
	}
	return t.entries[r.Intn(len(t.entries))], true
}

// Len returns the current reservoir occupancy.
func (s *ISState) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
