// Package adaptive makes importance sampling and step sizes respond to
// live training signals, complementing the paper's static scheme:
//
//   - GradWeights is the one adaptive importance rule: the Eq.-11
//     weight ‖∇f_i(w)‖ = |ℓ'(z_i)|·‖x_i‖, read off the |ℓ'| the update
//     loop records on every row it updates (Katharopoulos & Fleuret
//     2018; Alain et al. 2015), mixed with uniform so the Eq.-8
//     correction 1/(n·p_i) stays at most 2. The batch engine and the
//     streaming trainer both weigh their rows through it;
//   - Clock is the shared logical update clock the in-process τ probe
//     reads for the obs-layer staleness histograms (the perturbed-iterate
//     convention of the SME analysis, An, Lu & Ying);
//   - BaseRing retains recent published model versions so a coordinator
//     can recover the base a delayed push trained from;
//     CompensateDelta applies the DC-ASGD correction
//     g + λ·g⊙g⊙(w_now − w_base) in delta form at push-apply time, and
//     AttenuateDelta scales a stale push by 1/(1+c·τ). The in-process
//     trainers keep only DC, as core.Loop's λ; attenuating or shedding
//     single stale updates never paid on the referee (README).
//
// Everything here is allocation-free on the steady-state paths:
// GradWeights writes into the caller's buffer, Clock is one atomic, and
// CompensateDelta and AttenuateDelta mutate the push buffer in place.
package adaptive

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/isasgd/isasgd/internal/snapshot"
)

// CheckNonNegative is the rule of the policy strengths (a DC-ASGD λ, a
// coordinator's attenuation c): finite and at least 0, where 0 disables.
func CheckNonNegative(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("%s must be finite and non-negative, got %g", name, v)
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

// Clock is the shared logical update clock behind the in-process τ
// probe: every applied update ticks it once, and a worker's staleness is
// the number of ticks other workers landed between its gradient read and
// its write.
type Clock struct{ c atomic.Int64 }

// Now samples the clock (gradient-read time).
func (c *Clock) Now() int64 { return c.c.Load() }

// Tick advances the clock by one applied update and returns the new value.
func (c *Clock) Tick() int64 { return c.c.Add(1) }

// GradWeights writes into dst[k] the sampling weight of row rows[k] and
// returns dst, grown to len(rows). norm[i] is row i's ‖x_i‖ and grad[i]
// the |ℓ'(z)| the update loop last recorded for it; a negative (or NaN)
// grad[i] marks a row never visited, which takes the largest |ℓ'|
// recorded among rows — 1 when none is — an optimistic value in the same
// units, so it still gets drawn and measured. With w_k = norm·|ℓ'| the
// weight is the partially biased probability ½(1/n + w_k/Σw) (Needell et
// al. 2014): every row keeps at least half its uniform share, so the
// step correction 1/(n·p_k) is at most 2 however small a row's gradient
// gets, and all-zero gradients give the uniform distribution. Products
// that overflow count as MaxFloat64, and the sum is taken relative to
// the largest one, so every weight is finite and positive.
func GradWeights(dst []float64, rows []int, norm []float64, grad []float32) []float64 {
	n := len(rows)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	var gmax float32
	seen := false
	for _, i := range rows {
		if g := grad[i]; g >= 0 {
			gmax, seen = max(gmax, g), true
		}
	}
	if !seen {
		gmax = 1
	}
	wmax := 0.0
	for k, i := range rows {
		g := grad[i]
		if !(g >= 0) {
			g = gmax
		}
		w := norm[i] * float64(g)
		switch {
		case w > math.MaxFloat64:
			w = math.MaxFloat64
		case !(w >= 0):
			w = 0
		}
		dst[k] = w
		wmax = max(wmax, w)
	}
	inv := 1 / float64(n)
	if wmax == 0 {
		for k := range dst {
			dst[k] = inv
		}
		return dst
	}
	sum := 0.0 // Σ w/wmax ∈ [1, n]: neither overflows nor underflows
	for _, w := range dst {
		sum += w / wmax
	}
	for k, w := range dst {
		dst[k] = 0.5 * (inv + w/wmax/sum)
	}
	return dst
}

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
// factor 1/(1+c·τ), for a coordinator whose push staleness τ counts
// whole pushes.
func AttenuateDelta(val []float64, c float64, tau int64) {
	if c <= 0 || tau <= 0 {
		return
	}
	s := 1 / (1 + c*float64(tau))
	for k := range val {
		val[k] *= s
	}
}
