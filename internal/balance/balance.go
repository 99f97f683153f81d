// Package balance holds the shard-preparation machinery of the paper's
// Sections 2.3–2.4: the imbalance-potential metric ρ (Eq. 20), the
// convergence indicator ψ (Eq. 15), the head–tail rearrangement of
// Algorithm 3, contiguous sharding, and per-worker importance accounting
// Φ_a (Eq. 18) with the two measures of its spread.
//
// Background: IS-ASGD shards the training set across workers and each
// worker samples from a distribution computed over its *local* shard. If
// shard importance sums Φ_a differ, local probabilities are distorted
// relative to the global optimum (the paper's {1,2,3,4} example: globally
// p4 = 2·p2 but naive sharding makes p4 < p2). With equal per-worker
// quotas the distortion costs the factor Inflation(Φ) on the IS second
// moment.
//
// The runtime plan is a seeded shuffle (ForceShuffle, the zero Mode),
// in batch and cluster training and for every block of the streaming
// trainer: measured by Inflation, it balances at least as well as
// Algorithm 3 on every corpus of this repository, skewed ones included,
// where the contiguous cut of the head–tail order gives one shard the
// smallest and the largest weights. Algorithm 3 (ForceBalance) stays for
// the reproduction, and so does Algorithm 4's ρ ≥ ζ choice between the
// two, which only internal/experiments applies. The paper's pseudo-code
// prints that comparison as "ρ ≤ ζ → balance", but Section 2.4's prose
// ("a lower ρ indicates lower potential of severe importance imbalance")
// and Table 1 (News20, the one balanced dataset, has the highest ρ) show
// it is inverted in print; the reproduction uses ρ ≥ ζ → balance.
package balance

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/isasgd/isasgd/internal/xrand"
)

// DefaultZeta is the paper's empirical threshold for ρ (Section 2.4 sets
// ζ = 5e-4; News20 with ρ = 5e-4 is balanced, the lower-ρ sets are not).
const DefaultZeta = 5e-4

// Mode selects how the dataset order is prepared before sharding.
type Mode int

const (
	// ForceShuffle applies a seeded random shuffle: the runtime plan.
	ForceShuffle Mode = iota
	// ForceBalance applies the head–tail rearrangement of Algorithm 3.
	ForceBalance
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ForceShuffle:
		return "shuffle"
	case ForceBalance:
		return "balance"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Rho is the imbalance-potential metric of Eq. 20: the population variance
// of the Lipschitz constants, ρ = Σ(L_i − mean)² / N.
func Rho(l []float64) float64 {
	n := len(l)
	if n == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range l {
		mean += v
	}
	mean /= float64(n)
	s := 0.0
	for _, v := range l {
		d := v - mean
		s += d * d
	}
	return s / float64(n)
}

// Psi is the convergence-improvement indicator of Eq. 15 in its
// normalized form ψ = (ΣL)² / (N · ΣL²) ∈ (0, 1]; Table 1 reports this
// normalization (values 0.877–0.972). IS helps more as ψ falls.
func Psi(l []float64) float64 {
	n := len(l)
	if n == 0 {
		return 0
	}
	sum, sumSq := 0.0, 0.0
	for _, v := range l {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}

// HeadTail implements Algorithm 3: sort indices by L ascending, ties in
// index order, then interleave head and tail (Ds[0], Ds[n-1], Ds[1],
// Ds[n-2], ...) so that contiguous shards receive near-equal importance
// sums. Returns the rearranged index order Dr. The sort is stable on
// cmp.Compare's order: NaNs first, −0 equal to +0.
func HeadTail(l []float64) []int {
	n := len(l)
	ds := make([]int, n)
	for i := range ds {
		ds[i] = i
	}
	slices.SortStableFunc(ds, func(a, b int) int { return cmp.Compare(l[a], l[b]) })
	dr := make([]int, 0, n)
	for i := 0; i < n/2; i++ {
		dr = append(dr, ds[i], ds[n-1-i])
	}
	if n%2 == 1 {
		dr = append(dr, ds[n/2])
	}
	return dr
}

// Split divides order into parts contiguous shards whose sizes differ by
// at most one (the first len(order)%parts get one extra), mirroring
// Algorithm 4 line 9's contiguous range slicing.
func Split(order []int, parts int) [][]int {
	parts = max(parts, 1)
	shards := make([][]int, parts)
	base, rem, pos := len(order)/parts, len(order)%parts, 0
	for s := range shards {
		c := base
		if s < rem {
			c++
		}
		shards[s] = order[pos : pos+c]
		pos += c
	}
	return shards
}

// ImportanceSums returns Φ_a = Σ_{i ∈ shard a} L_i for each shard (Eq. 18).
func ImportanceSums(shards [][]int, l []float64) []float64 {
	phis := make([]float64, len(shards))
	for a, shard := range shards {
		for _, i := range shard {
			phis[a] += l[i]
		}
	}
	return phis
}

// Imbalance summarizes a Φ vector as (max − min) / mean; 0 means perfectly
// balanced shards (Eq. 19 satisfied).
func Imbalance(phis []float64) float64 {
	if len(phis) == 0 {
		return 0
	}
	minP, maxP, sum := math.Inf(1), math.Inf(-1), 0.0
	for _, p := range phis {
		minP = math.Min(minP, p)
		maxP = math.Max(maxP, p)
		sum += p
	}
	mean := sum / float64(len(phis))
	if mean == 0 {
		return 0
	}
	return (maxP - minP) / mean
}

// Inflation returns K·ΣΦ_a²/(ΣΦ_a)² for the K shard sums Φ: the factor
// by which unequal shard importance inflates the IS second moment over
// the global optimum when every worker draws the same number of
// updates. It is 1 for equal sums and at most K; 0 for no weight.
func Inflation(phis []float64) float64 {
	sum, sumSq := 0.0, 0.0
	for _, p := range phis {
		sum += p
		sumSq += p * p
	}
	if sum == 0 {
		return 0
	}
	return float64(len(phis)) * sumSq / (sum * sum)
}

// Decision records how the dataset order was prepared and the resulting
// shard quality, for logging and the experiment harness.
type Decision struct {
	Balanced  bool    // whether head–tail (Algorithm 3) was applied
	Rho       float64 // Eq. 20 on the full L vector
	Zeta      float64 // the paper's threshold DefaultZeta, for reading ρ against; no plan consults it
	Psi       float64 // Eq. 15 (normalized)
	Imbalance float64 // (max−min)/mean over shard Φ_a
	Inflation float64 // Inflation over shard Φ_a
}

// Plan prepares the training order for numT workers: a shuffle drawn
// from r (ForceShuffle), or Algorithm 3's head–tail order
// (ForceBalance), which draws nothing. It reports shard statistics. The
// returned order is the rearranged dataset index sequence Dr; shards are
// contiguous slices of it (Split).
func Plan(l []float64, numT int, mode Mode, r *xrand.Rand) ([]int, Decision) {
	d := Decision{Rho: Rho(l), Zeta: DefaultZeta, Psi: Psi(l)}
	var order []int
	if mode == ForceBalance {
		order = HeadTail(l)
		d.Balanced = true
	} else {
		order = r.Perm(len(l))
	}
	phis := ImportanceSums(Split(order, numT), l)
	d.Imbalance, d.Inflation = Imbalance(phis), Inflation(phis)
	return order, d
}
