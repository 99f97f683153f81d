// Package balance implements the importance-balancing machinery of the
// paper's Sections 2.3–2.4: the imbalance-potential metric ρ (Eq. 20), the
// head–tail rearrangement of Algorithm 3, the adaptive plan of Algorithm 4
// lines 2–6, and per-worker importance accounting Φ_a (Eq. 18).
//
// Background: IS-ASGD shards the training set across workers and each
// worker samples from a distribution computed over its *local* shard. If
// shard importance sums Φ_a differ, local probabilities are distorted
// relative to the global optimum (the paper's {1,2,3,4} example: globally
// p4 = 2·p2 but naive sharding makes p4 < p2). Equalizing Φ_a across
// shards removes the distortion.
//
// Note on the paper's Algorithm 4 line 3: the pseudo-code compares
// "ρ ≤ ζ → balance", but Section 2.4's prose ("a lower ρ indicates lower
// potential of severe importance imbalance") and Table 1 (News20, the one
// balanced dataset, has the highest ρ) show the comparison is inverted in
// print. This package implements the semantically consistent rule
// ρ ≥ ζ → balance and records which branch was taken in the Decision.
package balance

import (
	"fmt"
	"math"

	"github.com/isasgd/isasgd/internal/xrand"
)

// DefaultZeta is the paper's empirical threshold for ρ (Section 2.4 sets
// ζ = 5e-4; News20 with ρ = 5e-4 is balanced, the lower-ρ sets are not).
const DefaultZeta = 5e-4

// Mode selects how the dataset order is prepared before sharding.
type Mode int

const (
	// Auto applies Algorithm 4: balance when ρ ≥ ζ, shuffle otherwise.
	Auto Mode = iota
	// ForceBalance always applies the head–tail rearrangement.
	ForceBalance
	// ForceShuffle always applies a random shuffle.
	ForceShuffle
	// Sorted orders samples by descending L. This is the worst case for
	// contiguous sharding and exists for the ablation bench.
	Sorted
	// LPT applies greedy longest-processing-time multiway partitioning,
	// a stronger (but not contiguous-shard) equalizer kept as an
	// extension; the paper notes exact equal-importance partitioning is
	// NP-hard and settles for head–tail matching.
	LPT
)

// ParseMode is the one balance-mode lookup: it resolves a String name;
// "" selects Auto.
func ParseMode(name string) (Mode, error) {
	if name == "" {
		return Auto, nil
	}
	for m := Auto; m <= LPT; m++ {
		if name == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown balance mode %q (want auto, balance, shuffle, sorted or lpt)", name)
}

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case ForceBalance:
		return "balance"
	case ForceShuffle:
		return "shuffle"
	case Sorted:
		return "sorted"
	case LPT:
		return "lpt"
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
// sums. Returns the rearranged index order Dr. The sort is argsort's
// stable radix order on the weights' keys, which is cmp.Compare's order
// with ties kept in index order.
func HeadTail(l []float64) []int {
	n := len(l)
	ds := argsort(sortKeys(l, 0))
	dr := make([]int, 0, n)
	for i := 0; i < n/2; i++ {
		dr = append(dr, ds[i], ds[n-1-i])
	}
	if n%2 == 1 {
		dr = append(dr, ds[n/2])
	}
	return dr
}

// sortKeys returns, for each weight, a uint64 whose unsigned order is
// cmp.Compare's order on the weights, XORed with flip: NaNs first and
// equal, −0 equal to +0 (the +0 makes −0 into +0), negatives below
// positives. A flip of all ones reverses the order.
func sortKeys(l []float64, flip uint64) []uint64 {
	keys := make([]uint64, len(l))
	for i, v := range l {
		var k uint64 // NaN
		if v == v {
			k = math.Float64bits(v + 0)
			if k>>63 == 0 {
				k |= 1 << 63
			} else {
				k = ^k
			}
		}
		keys[i] = k ^ flip
	}
	return keys
}

// argsort returns the indices of keys in ascending key order, ties in
// index order: a stable LSD radix sort one byte a pass, which skips every
// byte that all keys share. It reorders keys in place.
func argsort(keys []uint64) []int {
	n := len(keys)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if n < 2 {
		return idx
	}
	var counts [8][256]int
	for _, k := range keys {
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	keys2, idx2 := make([]uint64, n), make([]int, n)
	for b := range counts {
		c, shift := &counts[b], 8*b
		if c[byte(keys[0]>>shift)] == n {
			continue
		}
		sum := 0
		for d, cnt := range c {
			c[d], sum = sum, sum+cnt
		}
		for i, k := range keys {
			d := byte(k >> shift)
			keys2[c[d]], idx2[c[d]] = k, idx[i]
			c[d]++
		}
		keys, keys2 = keys2, keys
		idx, idx2 = idx2, idx
	}
	return idx
}

// Shuffle returns a uniformly random order of [0, n).
func Shuffle(n int, r *xrand.Rand) []int {
	return r.Perm(n)
}

// SortedDesc returns indices ordered by descending L, ties in index
// order (ablation worst case for contiguous sharding): argsort on the
// complemented keys.
func SortedDesc(l []float64) []int {
	return argsort(sortKeys(l, ^uint64(0)))
}

// GreedyLPT partitions indices into parts shards by assigning samples in
// descending-L order to the currently lightest shard, then flattens the
// shards back into one order so that contiguous sharding by Split
// reproduces them. Classical 4/3-approximation to multiway number
// partitioning.
func GreedyLPT(l []float64, parts int) []int {
	if parts < 1 {
		parts = 1
	}
	order := SortedDesc(l)
	shards := make([][]int, parts)
	sums := make([]float64, parts)
	target := len(l)/parts + 1
	for i := range shards {
		shards[i] = make([]int, 0, target)
	}
	for _, idx := range order {
		// Pick the shard with the smallest sum that is not already full.
		// Capacity balancing keeps shard sizes within ±1 so Split can
		// reconstruct them contiguously.
		best := -1
		for s := 0; s < parts; s++ {
			if len(shards[s]) >= capFor(len(l), parts, s) {
				continue
			}
			if best == -1 || sums[s] < sums[best] {
				best = s
			}
		}
		shards[best] = append(shards[best], idx)
		sums[best] += l[idx]
	}
	out := make([]int, 0, len(l))
	for _, s := range shards {
		out = append(out, s...)
	}
	return out
}

// capFor returns the size of shard s when n items are split into parts
// contiguous shards via Split (first n%parts shards get one extra).
func capFor(n, parts, s int) int {
	base := n / parts
	if s < n%parts {
		return base + 1
	}
	return base
}

// Split divides order into parts contiguous shards whose sizes differ by
// at most one, mirroring Algorithm 4 line 9's contiguous range slicing.
func Split(order []int, parts int) [][]int {
	if parts < 1 {
		parts = 1
	}
	shards := make([][]int, parts)
	pos := 0
	for s := 0; s < parts; s++ {
		c := capFor(len(order), parts, s)
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

// Shards is Plan followed by Split: it prepares the training order for
// parts workers and returns the contiguous per-worker shards directly.
// Cluster deployments use it to assign each worker node its
// importance-balanced slice of the corpus — every node computes the same
// deterministic plan from the same weights and seed, so shard assignment
// needs no coordination traffic.
func Shards(l []float64, parts int, mode Mode, zeta float64, r *xrand.Rand) ([][]int, Decision) {
	order, dec := Plan(l, parts, mode, zeta, r)
	return Split(order, parts), dec
}

// Decision records which path Algorithm 4 took and the resulting shard
// quality, for logging and the experiment harness.
type Decision struct {
	Mode      Mode    // requested mode
	Balanced  bool    // whether head–tail (or LPT) was applied
	Rho       float64 // Eq. 20 on the full L vector
	Zeta      float64 // threshold used
	Psi       float64 // Eq. 15 (normalized)
	Imbalance float64 // (max−min)/mean over shard Φ_a
}

// Plan prepares the training order for numT workers per Algorithm 4 lines
// 2–6 (with the erratum fix described in the package comment): compute ρ,
// choose balancing or shuffling, rearrange, and report shard statistics.
// The returned order is the rearranged dataset index sequence Dr; shards
// are contiguous slices of it.
func Plan(l []float64, numT int, mode Mode, zeta float64, r *xrand.Rand) ([]int, Decision) {
	if zeta <= 0 {
		zeta = DefaultZeta
	}
	d := Decision{Mode: mode, Rho: Rho(l), Zeta: zeta, Psi: Psi(l)}
	var order []int
	switch mode {
	case ForceBalance:
		order = HeadTail(l)
		d.Balanced = true
	case ForceShuffle:
		order = Shuffle(len(l), r)
	case Sorted:
		order = SortedDesc(l)
	case LPT:
		order = GreedyLPT(l, numT)
		d.Balanced = true
	default: // Auto
		if d.Rho >= zeta {
			order = HeadTail(l)
			d.Balanced = true
		} else {
			order = Shuffle(len(l), r)
		}
	}
	d.Imbalance = Imbalance(ImportanceSums(Split(order, numT), l))
	return order, d
}
