// Package adaptive makes importance sampling and step sizes respond to
// live training signals, complementing the paper's static scheme:
//
//   - LossMap maintains bounded per-row loss EMAs so a streaming ISState
//     can re-weight its reservoir as losses evolve (Katharopoulos &
//     Fleuret 2018's loss-based importance with an upper-bound fallback
//     for rows whose loss has not been observed yet; the 1/(n·p) bias
//     correction of Eq. 8 keeps the reweighted updates unbiased);
//   - Policy carries the staleness-adaptive step schedule η/(1+c·τ) and
//     the update-shedding bound motivated by the SME analysis (An, Lu &
//     Ying) of how delay distorts asynchronous SGD dynamics;
//   - Clock is the shared logical update clock the in-process τ probe
//     reads (the same perturbed-iterate convention as the obs-layer
//     staleness histograms);
//   - BaseRing retains recent published model versions so a coordinator
//     can recover the base a delayed push trained from, and
//     CompensateDelta applies the DC-ASGD correction
//     g + λ·g⊙g⊙(w_now − w_base) in delta form at push-apply time.
//
// Everything here is allocation-free on the steady-state paths: LossMap
// only updates keys the ingest path seeded, Policy and Clock are plain
// arithmetic over pre-bound state, and CompensateDelta mutates the push
// buffer in place.
package adaptive

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/isasgd/isasgd/internal/snapshot"
)

// DefaultLossBeta is the EMA weight of a new loss observation when the
// caller does not choose one: heavy enough that a few visits move a
// row's weight, damped enough that one noisy step does not dominate.
const DefaultLossBeta = 0.25

// Policy configures the adaptive update behavior of a training surface.
// The zero value disables everything.
type Policy struct {
	// AdaptC scales steps by 1/(1+AdaptC·τ) where τ is the measured
	// per-update staleness — the SME-motivated schedule that damps stale
	// gradients instead of applying them at full strength. <= 0 disables.
	AdaptC float64
	// StalenessBound sheds (skips) updates whose measured τ exceeds it.
	// <= 0 disables shedding — in-process Hogwild updates are almost
	// never fully fresh, so unlike the cluster protocol there is no
	// "admit only τ=0" setting here.
	StalenessBound int64
	// DCLambda enables delay compensation with strength λ: the update
	// direction d gains the correction term λ·d²·(w_now − w_base)
	// per coordinate (DC-ASGD; λ absorbs the step size when the caller
	// works in delta rather than gradient units). <= 0 disables.
	DCLambda float64
}

// Enabled reports whether any adaptive behavior is switched on.
func (p Policy) Enabled() bool {
	return p.AdaptC > 0 || p.StalenessBound > 0 || p.DCLambda > 0
}

// Validate rejects non-finite or negative knobs.
func (p Policy) Validate() error {
	if math.IsNaN(p.AdaptC) || math.IsInf(p.AdaptC, 0) || p.AdaptC < 0 {
		return fmt.Errorf("adaptive: AdaptC must be finite and non-negative, got %g", p.AdaptC)
	}
	if math.IsNaN(p.DCLambda) || math.IsInf(p.DCLambda, 0) || p.DCLambda < 0 {
		return fmt.Errorf("adaptive: DCLambda must be finite and non-negative, got %g", p.DCLambda)
	}
	return nil
}

// CheckStep is the one step-size rule of every training surface: the
// base step λ must be finite and positive.
func CheckStep(step float64) error {
	if !(step > 0) || math.IsInf(step, 0) {
		return fmt.Errorf("step must be positive and finite, got %g", step)
	}
	return nil
}

// CheckDecay is the one step-decay rule: the per-epoch (or per-block,
// per-round) multiplier must lie in (0, 1]; 0 selects 1, no decay.
func CheckDecay(decay float64) error {
	if decay != 0 && !(decay > 0 && decay <= 1) {
		return fmt.Errorf("step_decay must be in (0, 1], got %g", decay)
	}
	return nil
}

// Scale returns the staleness-adaptive step multiplier 1/(1+c·τ);
// 1 when adaptation is off or τ is not positive.
func (p Policy) Scale(tau int64) float64 {
	if p.AdaptC <= 0 || tau <= 0 {
		return 1
	}
	return 1 / (1 + p.AdaptC*float64(tau))
}

// Shed reports whether an update with measured staleness τ should be
// dropped under the policy's bound.
func (p Policy) Shed(tau int64) bool {
	return p.StalenessBound > 0 && tau > p.StalenessBound
}

// Clock is the shared logical update clock behind the in-process τ
// probe: every applied update ticks it once, and a worker's staleness is
// the number of ticks other workers landed between its gradient read and
// its write.
type Clock struct{ c atomic.Int64 }

// Now samples the clock (gradient-read time).
func (c *Clock) Now() int64 { return c.c.Load() }

// Tick advances the clock by one applied update and returns the new value.
func (c *Clock) Tick() int64 { return c.c.Add(1) }

// lossEntry is one row's loss state: the EMA once a loss has been
// observed, the seeded upper-bound placeholder before that.
type lossEntry struct {
	ema  float64
	seen bool
}

// LossMap holds bounded per-row loss EMAs keyed by global stream ref.
// The ingest path seeds resident rows (Seed), the update hot loop feeds
// observed losses (Observe — a no-op for rows that were never seeded, so
// the steady state allocates nothing), and rebuilds read each row's
// effective weight (Weight — the EMA when one exists, the caller's
// static upper bound otherwise). Not safe for concurrent use; the owner
// (stream.ISState) serializes access under its reservoir mutex.
type LossMap struct {
	beta float64
	m    map[int64]lossEntry
}

// NewLossMap returns an empty map whose EMAs weight each new observation
// by beta: ema ← (1−β)·ema + β·loss. beta outside (0, 1] selects
// DefaultLossBeta.
func NewLossMap(beta float64) *LossMap {
	if beta <= 0 || beta > 1 || math.IsNaN(beta) {
		beta = DefaultLossBeta
	}
	return &LossMap{beta: beta, m: make(map[int64]lossEntry)}
}

// Beta returns the EMA observation weight.
func (lm *LossMap) Beta() float64 { return lm.beta }

// Seed registers ref as resident, preserving any loss state it already
// has. Only seeded refs accept observations — Seed is the one place the
// map grows, and it runs on the ingest path, not the update hot loop.
func (lm *LossMap) Seed(ref int64) {
	if _, ok := lm.m[ref]; !ok {
		lm.m[ref] = lossEntry{}
	}
}

// Observe folds one measured loss into ref's EMA. Non-finite or negative
// losses and unseeded refs are dropped; it reports whether the
// observation was recorded. Assigning to an existing key does not grow
// the map, keeping the hot loop allocation-free.
func (lm *LossMap) Observe(ref int64, loss float64) bool {
	if loss < 0 || math.IsNaN(loss) || math.IsInf(loss, 0) {
		return false
	}
	e, ok := lm.m[ref]
	if !ok {
		return false
	}
	if !e.seen {
		e = lossEntry{ema: loss, seen: true}
	} else {
		next := (1-lm.beta)*e.ema + lm.beta*loss
		if math.IsInf(next, 0) {
			// Two near-MaxFloat64 terms can round past the representable
			// range even though a true convex combination never exceeds
			// max(ema, loss); clamp rather than poison the distribution.
			next = math.MaxFloat64
		}
		e.ema = next
	}
	lm.m[ref] = e
	return true
}

// Weight returns ref's effective importance weight: the loss EMA when
// one has been observed, fallback (the static upper bound) otherwise —
// unseen rows keep their optimistic weight so they still get sampled
// and their loss measured.
func (lm *LossMap) Weight(ref int64, fallback float64) float64 {
	if e, ok := lm.m[ref]; ok && e.seen {
		return e.ema
	}
	return fallback
}

// EvictBefore drops every ref below minRef — rows that slid out of the
// owner's window and can never be observed again.
func (lm *LossMap) EvictBefore(minRef int64) {
	for ref := range lm.m {
		if ref < minRef {
			delete(lm.m, ref)
		}
	}
}

// Len returns the number of resident refs.
func (lm *LossMap) Len() int { return len(lm.m) }

// BaseRing retains the last capacity published model versions keyed by
// sequence number, so a push that trained from seq s can be compensated
// against the exact weights it read — the snapshot store itself keeps
// only the newest version. Safe for concurrent use.
type BaseRing struct {
	mu  sync.Mutex
	buf []*snapshot.Version
}

// NewBaseRing returns a ring holding up to capacity versions (minimum 1).
func NewBaseRing(capacity int) *BaseRing {
	if capacity < 1 {
		capacity = 1
	}
	return &BaseRing{buf: make([]*snapshot.Version, capacity)}
}

// Add retains v, evicting whatever version previously shared its slot.
func (r *BaseRing) Add(v *snapshot.Version) {
	if v == nil {
		return
	}
	r.mu.Lock()
	r.buf[v.Seq%uint64(len(r.buf))] = v
	r.mu.Unlock()
}

// Get returns the retained version with the given seq, or nil when it
// was never added or has been evicted.
func (r *BaseRing) Get(seq uint64) *snapshot.Version {
	r.mu.Lock()
	v := r.buf[seq%uint64(len(r.buf))]
	r.mu.Unlock()
	if v == nil || v.Seq != seq {
		return nil
	}
	return v
}

// CompensateDelta applies the DC-ASGD correction to a pushed delta in
// place: for each coordinate j = idx[k], the delta d = val[k] becomes
// d − λ·d²·(now[j] − base[j]). In gradient units the correction is
// ĝ = g + λ·g⊙g⊙(w_now − w_base); a pushed delta is −η·Σg, so λ here
// absorbs the worker's 1/η (callers tune λ in delta units). Indices must
// be in range for now and base; values stay finite-checked by the caller
// (the coordinator's pre-apply gate runs after compensation).
func CompensateDelta(idx []int, val, now, base []float64, lambda float64) {
	for k, j := range idx {
		d := val[k]
		val[k] = d - lambda*d*d*(now[j]-base[j])
	}
}

// AttenuateDelta scales a pushed delta in place by the staleness-adaptive
// factor 1/(1+c·τ) — the coordinator-side analog of Policy.Scale applied
// to a whole delta rather than a single step.
func AttenuateDelta(val []float64, c float64, tau int64) {
	if c <= 0 || tau <= 0 {
		return
	}
	s := 1 / (1 + c*float64(tau))
	for k := range val {
		val[k] *= s
	}
}
