// Package sampling implements the weighted sampling machinery behind
// importance sampling (IS) for SGD and ASGD.
//
// The paper's Algorithm 2 separates IS into an offline phase — build the
// distribution P with p_i = L_i / Σ_j L_j (Eq. 12) and pre-generate the
// sample sequence S — and an online phase identical to plain SGD except
// for the 1/(n·p_i) step correction. This package provides:
//
//   - Alias: Walker–Vose alias tables, O(n) build and O(1) draws, the
//     default sampler;
//   - CDF: inverse-transform sampling via binary search, O(log n) draws,
//     kept as an ablation and as the reference distribution;
//   - Uniform: the plain-SGD sampler;
//   - Sequence: pre-generated index sequences (Algorithm 2 line 3), which
//     reduce the online cost of IS to that of plain ASGD.
package sampling

import (
	"errors"
	"fmt"
	"math"

	"github.com/isasgd/isasgd/internal/xrand"
)

// Sampler draws indices in [0, N()).
type Sampler interface {
	// Sample draws one index using the supplied generator.
	Sample(r *xrand.Rand) int
	// N returns the support size.
	N() int
}

// Weighted is a Sampler with an inspectable distribution. Prob(i) is the
// exact probability of drawing i, needed for the 1/(n·p_i) importance
// correction.
type Weighted interface {
	Sampler
	Prob(i int) float64
}

// ErrBadWeights is returned when a weight vector is empty, contains a
// negative or non-finite entry, or sums to zero.
var ErrBadWeights = errors.New("sampling: weights must be non-negative, finite, and not all zero")

// normalize writes weights/Σweights into dst, reusing its capacity, and
// returns it. It checks every weight before writing any, so on error
// dst is untouched.
func normalize(dst, weights []float64) ([]float64, error) {
	if len(weights) == 0 {
		return nil, ErrBadWeights
	}
	sum := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("%w (got %g)", ErrBadWeights, w)
		}
		sum += w
	}
	if sum == 0 {
		return nil, ErrBadWeights
	}
	if math.IsInf(sum, 0) {
		// Every weight was finite but the sum overflowed; dividing would
		// silently produce an all-zero "distribution".
		return nil, fmt.Errorf("%w (sum overflows to %g)", ErrBadWeights, sum)
	}
	p := resize(dst, len(weights))
	inv := 1 / sum
	if math.IsInf(inv, 0) {
		// sum is denormal-small: its reciprocal overflows, which would
		// turn every probability into +Inf. Divide directly instead.
		for i, w := range weights {
			p[i] = w / sum
		}
		return p, nil
	}
	for i, w := range weights {
		p[i] = w * inv
	}
	return p, nil
}

// resize returns s with length n, reallocating only when its capacity
// falls short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Uniform samples uniformly over [0, n).
type Uniform struct{ n int }

// NewUniform returns a uniform sampler over [0, n). It panics if n <= 0.
func NewUniform(n int) *Uniform {
	if n <= 0 {
		panic("sampling: NewUniform with non-positive n")
	}
	return &Uniform{n: n}
}

// Sample draws one index.
func (u *Uniform) Sample(r *xrand.Rand) int { return r.Intn(u.n) }

// N returns the support size.
func (u *Uniform) N() int { return u.n }

// Prob returns 1/n for any in-range index.
func (u *Uniform) Prob(i int) float64 {
	if i < 0 || i >= u.n {
		return 0
	}
	return 1 / float64(u.n)
}

// Alias is a Walker–Vose alias table: O(1) per draw regardless of the
// weight skew. This is what makes IS "free" online — drawing from P costs
// the same as drawing uniformly.
type Alias struct {
	prob  []float64 // acceptance threshold per bucket
	alias []int32   // fallback index per bucket
	p     []float64 // normalized distribution, for Prob

	// Vose's worklists, kept between Rebuilds so that a rebuild
	// allocates nothing. NewAlias drops them: a table built once keeps
	// only what draws read.
	scaled       []float64
	small, large []int32
}

// NewAlias builds an alias table from non-negative weights.
func NewAlias(weights []float64) (*Alias, error) {
	a := new(Alias)
	if err := a.Rebuild(weights); err != nil {
		return nil, err
	}
	a.scaled, a.small, a.large = nil, nil, nil
	return a, nil
}

// Rebuild rebuilds the table in place from non-negative weights, reusing
// its slices: the table it leaves is bit for bit the one NewAlias builds
// from the same weights, and once a table has held as many entries, a
// rebuild allocates nothing. On error the table is unchanged. A table
// must not be rebuilt while another goroutine draws from it.
func (a *Alias) Rebuild(weights []float64) error {
	p, err := normalize(a.p, weights)
	if err != nil {
		return err
	}
	n := len(p)
	a.p = p
	a.prob = resize(a.prob, n)
	a.alias = resize(a.alias, n)
	// Vose's stable construction with explicit small/large worklists.
	scaled := resize(a.scaled, n)
	small := resize(a.small, n)[:0]
	large := resize(a.large, n)[:0]
	for i, pi := range p {
		scaled[i] = pi * float64(n)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers are 1 up to rounding.
	for _, l := range large {
		a.prob[l] = 1
		a.alias[l] = l
	}
	for _, s := range small {
		a.prob[s] = 1
		a.alias[s] = s
	}
	a.scaled, a.small, a.large = scaled, small, large
	return nil
}

// Sample draws one index in O(1).
func (a *Alias) Sample(r *xrand.Rand) int {
	n := len(a.prob)
	i := r.Intn(n)
	if r.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// N returns the support size.
func (a *Alias) N() int { return len(a.prob) }

// Prob returns the exact probability of drawing i.
func (a *Alias) Prob(i int) float64 {
	if i < 0 || i >= len(a.p) {
		return 0
	}
	return a.p[i]
}

// Probs returns the full normalized distribution (not a copy; read-only).
func (a *Alias) Probs() []float64 { return a.p }

// Implied writes into dst, grown to N(), the distribution Sample draws
// from, read off the table itself: bucket i keeps i with probability
// prob[i] and hands the rest to alias[i], so i is drawn with probability
// (prob[i] + Σ_{j≠i, alias[j]=i} (1 − prob[j]))/n. It equals Probs up to
// the rounding of Vose's construction, within VoseBound.
func (a *Alias) Implied(dst []float64) []float64 {
	n := len(a.prob)
	dst = resize(dst, n)
	for i, p := range a.prob {
		dst[i] = p
	}
	for j, i := range a.alias {
		if int(i) != j {
			dst[i] += 1 - a.prob[j]
		}
	}
	for i := range dst {
		dst[i] /= float64(n)
	}
	return dst
}

// VoseBound bounds |Implied(i) − Prob(i)| for a table over n entries
// whose largest scaled probability n·Prob(i) is m, in units of the unit
// roundoff u = 2⁻⁵³:
//   - n·(n+3): Prob sums to 1 within (n+1)·u (the weights' running sum,
//     its reciprocal, each product) and scaling by n adds u per entry;
//     the leftover buckets, set to 1, absorb that whole excess;
//   - 2·(n−1)·(m+1): each of the at most n−1 donations rounds an add
//     and a subtract of values at most m+1, and the leftovers absorb
//     those too;
//   - 2·n·(m+2): Implied's own sum, at most n terms 1 − prob[j] (each
//     rounded) added to a running value at most m+1.
//
// Implied divides the sum of those by n, within u·m/n.
func VoseBound(n int, m float64) float64 {
	const u = 0x1p-53
	nf := float64(n)
	return u * (nf*(nf+3) + 2*(nf-1)*(m+1) + 2*nf*(m+2) + m) / nf
}

// CDF samples by inverse transform on the cumulative distribution with
// binary search: O(log n) per draw. Used as the reference implementation
// in tests and as an ablation against Alias.
type CDF struct {
	cum []float64
	p   []float64
}

// NewCDF builds a CDF sampler from non-negative weights.
func NewCDF(weights []float64) (*CDF, error) {
	p, err := normalize(nil, weights)
	if err != nil {
		return nil, err
	}
	cum := make([]float64, len(p))
	total := 0.0
	for i, pi := range p {
		total += pi
		cum[i] = total
	}
	cum[len(cum)-1] = 1
	return &CDF{cum: cum, p: p}, nil
}

// Sample draws one index in O(log n).
func (c *CDF) Sample(r *xrand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(c.cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// N returns the support size.
func (c *CDF) N() int { return len(c.cum) }

// Prob returns the exact probability of drawing i.
func (c *CDF) Prob(i int) float64 {
	if i < 0 || i >= len(c.p) {
		return 0
	}
	return c.p[i]
}

// Sequence pre-generates length draws from s (Algorithm 2 line 3:
// "Generate Sample Sequence S w.r.t distribution P"). The online training
// loop then just walks the slice, leaving its computation kernel identical
// to plain ASGD.
func Sequence(s Sampler, r *xrand.Rand, length int) []int32 {
	seq := make([]int32, length)
	SequenceInto(seq, s, r)
	return seq
}

// SequenceInto refills an existing sequence in place with fresh draws
// from s, so per-epoch regeneration (the default, unbiased mode) reuses
// the epoch-start buffer instead of allocating a new one.
func SequenceInto(seq []int32, s Sampler, r *xrand.Rand) {
	for i := range seq {
		seq[i] = int32(s.Sample(r))
	}
}

// ShuffleSequence re-shuffles an existing sequence in place. Section 4.2
// of the paper notes that regenerating the IS sequence every epoch can be
// replaced by shuffling a single pre-generated sequence with no observable
// loss; this implements that approximation.
func ShuffleSequence(seq []int32, r *xrand.Rand) {
	r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
}
