package kernel

// Float32 counterparts of the package-level snapshot dots, for scoring
// against float32 weight arrays (serving f32 snapshot views, streaming
// f32 evaluation). Multiplication and accumulation stay in float32 —
// four independent accumulators per unrolled iteration, so the compiler
// is free to vectorize — and only the final sum widens to float64 for
// the caller. The result therefore differs from the f64 dots by
// ordinary float32 rounding; callers own the tolerance.

// Dot32 returns Σ_k val[k]·w[idx[k]] over float32 storage, widened to
// float64. Indices outside w are the caller's bug.
func Dot32(w []float32, idx []int32, val []float32) float64 {
	var s0, s1, s2, s3 float32
	k := 0
	if len(val) >= len(idx) { // hoist val bounds checks out of the loop
		val = val[:len(idx)]
	}
	for ; k+4 <= len(idx); k += 4 {
		s0 += val[k] * w[idx[k]]
		s1 += val[k+1] * w[idx[k+1]]
		s2 += val[k+2] * w[idx[k+2]]
		s3 += val[k+3] * w[idx[k+3]]
	}
	for ; k < len(idx); k++ {
		s0 += val[k] * w[idx[k]]
	}
	return float64((s0 + s1) + (s2 + s3))
}

// DotClampedInts32 scores the serving wire format (int indices, float64
// values) against float32 weights: the weight loads — the bandwidth
// term, since the model dwarfs any one request row — run at half width,
// while the request's own values stay float64 and the accumulation runs
// in float64, keeping serving scores close to the f64 scoring path.
func DotClampedInts32(w []float32, idx []int, val []float64) float64 {
	s := 0.0
	for k, j := range idx {
		if j >= 0 && j < len(w) {
			s += val[k] * float64(w[j])
		}
	}
	return s
}
