package dataset

import (
	"fmt"
	"math"
	"sort"

	"github.com/isasgd/isasgd/internal/sparse"
	"github.com/isasgd/isasgd/internal/xrand"
)

// SynthConfig describes a synthetic dataset. The generator reproduces the
// *scale signature* of a real sparse classification set — the quantities
// the paper's claims actually depend on:
//
//   - ∇f_i sparsity (Table 1 "∇fi-Spa."): controlled by NNZPerRow/Dim;
//   - ψ (Eq. 15): fixed by the log-normal spread of row norms. For the
//     logistic objective L_i ∝ ‖x_i‖² and ‖x_i‖ = e^{σZ} gives
//     ψ = e^{−4σ²}, so NormSigma is solved from the paper's ψ directly;
//   - ρ (Eq. 20): an absolute-scale quantity, hit by a global value
//     rescaling c chosen so Var(‖x_i‖²/4) = TargetRho (the η shift in
//     L_i does not change the variance);
//   - conflict structure: Zipf-distributed feature popularity creates a
//     heavy-tailed conflict graph like bag-of-words / click-log data.
//
// Labels come from a dense ground-truth hyperplane plus label noise, so
// training has a meaningful optimum and error rates behave like the
// paper's curves.
type SynthConfig struct {
	Name       string
	N          int     // number of samples
	Dim        int     // feature dimensionality
	NNZPerRow  int     // mean non-zeros per row
	NNZJitter  int     // uniform jitter: nnz ∈ [NNZPerRow−J, NNZPerRow+J]
	ZipfS      float64 // feature-popularity skew (0 = uniform)
	NormSigma  float64 // log-normal σ of row norms (sets ψ = e^{−4σ²})
	TargetRho  float64 // Eq. 20 target; ≤ 0 disables calibration
	LabelNoise float64 // probability of flipping each label
	Seed       uint64
}

// Validate checks the configuration for obvious inconsistencies.
func (c SynthConfig) Validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("synth %q: N must be positive, got %d", c.Name, c.N)
	case c.Dim <= 0:
		return fmt.Errorf("synth %q: Dim must be positive, got %d", c.Name, c.Dim)
	case c.NNZPerRow <= 0:
		return fmt.Errorf("synth %q: NNZPerRow must be positive, got %d", c.Name, c.NNZPerRow)
	case c.NNZJitter < 0 || c.NNZJitter >= c.NNZPerRow:
		return fmt.Errorf("synth %q: NNZJitter must be in [0, NNZPerRow), got %d", c.Name, c.NNZJitter)
	case c.NNZPerRow+c.NNZJitter > c.Dim:
		return fmt.Errorf("synth %q: NNZPerRow+NNZJitter %d exceeds Dim %d", c.Name, c.NNZPerRow+c.NNZJitter, c.Dim)
	case c.ZipfS < 0:
		return fmt.Errorf("synth %q: negative ZipfS", c.Name)
	case c.NormSigma < 0:
		return fmt.Errorf("synth %q: negative NormSigma", c.Name)
	case c.LabelNoise < 0 || c.LabelNoise > 0.5:
		return fmt.Errorf("synth %q: LabelNoise must be in [0, 0.5], got %g", c.Name, c.LabelNoise)
	}
	return nil
}

// Synthesize generates the dataset described by cfg. Generation is fully
// deterministic in cfg.Seed.
func Synthesize(cfg SynthConfig) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := xrand.New(cfg.Seed ^ 0x15a5_6d00_c0ffee11)
	zipf := xrand.NewZipf(cfg.Dim, cfg.ZipfS)

	// Ground-truth hyperplane for label generation.
	truth := make([]float64, cfg.Dim)
	for j := range truth {
		truth[j] = r.NormFloat64()
	}

	b := sparse.NewCSRBuilder(cfg.Dim)
	y := make([]float64, cfg.N)
	normSq := make([]float64, cfg.N)
	scratch := make([]int32, 0, cfg.NNZPerRow+cfg.NNZJitter)
	seen := make(map[int32]struct{}, cfg.NNZPerRow+cfg.NNZJitter)

	for i := 0; i < cfg.N; i++ {
		nnz := cfg.NNZPerRow
		if cfg.NNZJitter > 0 {
			nnz += r.Intn(2*cfg.NNZJitter+1) - cfg.NNZJitter
		}
		// Draw distinct feature indices from the Zipf popularity law.
		scratch = scratch[:0]
		clear(seen)
		for len(scratch) < nnz {
			j := int32(zipf.Sample(r))
			if _, dup := seen[j]; dup {
				continue
			}
			seen[j] = struct{}{}
			scratch = append(scratch, j)
		}
		sort.Slice(scratch, func(a, b int) bool { return scratch[a] < scratch[b] })

		v := sparse.Vector{Idx: append([]int32(nil), scratch...), Val: make([]float64, nnz)}
		ssq := 0.0
		for k := range v.Val {
			v.Val[k] = r.NormFloat64()
			ssq += v.Val[k] * v.Val[k]
		}
		// Unit-normalize, then apply the log-normal norm profile.
		scale := r.LogNormal(0, cfg.NormSigma) / math.Sqrt(ssq)
		for k := range v.Val {
			v.Val[k] *= scale
		}
		normSq[i] = v.NormSq()

		// Label from the ground truth, with noise.
		score := v.Dot(truth)
		if score >= 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
		if cfg.LabelNoise > 0 && r.Float64() < cfg.LabelNoise {
			y[i] = -y[i]
		}
		b.Append(v)
	}
	x := b.Build()

	// ρ calibration: rescale all values by c so that
	// Var(c²·‖x‖²/4) = TargetRho, i.e. c = (TargetRho/Var(‖x‖²/4))^{1/4}.
	if cfg.TargetRho > 0 {
		lp := make([]float64, cfg.N)
		for i, s := range normSq {
			lp[i] = s / 4
		}
		v0 := variance(lp)
		if v0 > 0 {
			c := math.Pow(cfg.TargetRho/v0, 0.25)
			for k := range x.Val {
				x.Val[k] *= c
			}
		}
	}

	d := &Dataset{Name: cfg.Name, X: x, Y: y}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("synth %q: generated invalid dataset: %w", cfg.Name, err)
	}
	return d, nil
}

func variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	s := 0.0
	for _, x := range v {
		d := x - mean
		s += d * d
	}
	return s / float64(len(v))
}

// scaleInt scales n by f with a floor.
func scaleInt(n int, f float64, floor int) int {
	s := int(float64(n) * f)
	if s < floor {
		return floor
	}
	return s
}

// News20Like mimics JMLR News20: low dimensionality relative to the other
// sets, comparatively dense rows, the highest ψ (0.972) and the highest
// ρ (5e-4 — the one dataset the paper importance-balances). scale ∈ (0,1]
// shrinks N and Dim proportionally for quick runs.
func News20Like(scale float64, seed uint64) SynthConfig {
	return SynthConfig{
		Name:       "news20s",
		N:          scaleInt(20000, scale, 200),
		Dim:        scaleInt(120000, scale, 500),
		NNZPerRow:  40,
		NNZJitter:  20,
		ZipfS:      0.8,
		NormSigma:  0.084, // ψ = e^{−4σ²} ≈ 0.972
		TargetRho:  6e-4,  // above ζ=5e-4 → Algorithm 4 balances
		LabelNoise: 0.05,
		Seed:       seed,
	}
}

// URLLike mimics ICML URL: many more samples than News20, sparser rows,
// ψ ≈ 0.964, ρ = 3e-4 (below ζ → shuffled). The paper trains it with a
// 10× smaller step (λ=0.05).
func URLLike(scale float64, seed uint64) SynthConfig {
	return SynthConfig{
		Name:       "urls",
		N:          scaleInt(200000, scale, 1000),
		Dim:        scaleInt(300000, scale, 2000),
		NNZPerRow:  12,
		NNZJitter:  6,
		ZipfS:      1.0,
		NormSigma:  0.096, // ψ ≈ 0.964
		TargetRho:  3e-4,
		LabelNoise: 0.03,
		Seed:       seed,
	}
}

// KDDALike mimics KDD2010 Algebra: extreme dimensionality, extreme
// sparsity, ψ ≈ 0.892 (IS helps most), ρ = 1e-4 (shuffled).
func KDDALike(scale float64, seed uint64) SynthConfig {
	return SynthConfig{
		Name:       "kddas",
		N:          scaleInt(300000, scale, 2000),
		Dim:        scaleInt(600000, scale, 4000),
		NNZPerRow:  10,
		NNZJitter:  4,
		ZipfS:      1.1,
		NormSigma:  0.169, // ψ ≈ 0.892
		TargetRho:  1e-4,
		LabelNoise: 0.03,
		Seed:       seed,
	}
}

// KDDBLike mimics KDD2010 Bridge-to-Algebra: the largest set, lowest
// ψ ≈ 0.877, ρ = 2e-4 (shuffled).
func KDDBLike(scale float64, seed uint64) SynthConfig {
	return SynthConfig{
		Name:       "kddbs",
		N:          scaleInt(400000, scale, 3000),
		Dim:        scaleInt(900000, scale, 6000),
		NNZPerRow:  8,
		NNZJitter:  4,
		ZipfS:      1.1,
		NormSigma:  0.181, // ψ ≈ 0.877
		TargetRho:  2e-4,
		LabelNoise: 0.03,
		Seed:       seed,
	}
}

// Small is a quick well-conditioned preset for tests and the quickstart
// example.
func Small(seed uint64) SynthConfig {
	return SynthConfig{
		Name:       "small",
		N:          600,
		Dim:        400,
		NNZPerRow:  12,
		NNZJitter:  4,
		ZipfS:      0.6,
		NormSigma:  0.15,
		TargetRho:  1e-3,
		LabelNoise: 0.02,
		Seed:       seed,
	}
}

// Preset is the one preset-name lookup. Each preset answers to its
// Name (small, news20s, urls, kddas, kddbs) and to the short spelling
// (news20, url, kdda, kddb); seed goes to the generator unchanged and
// scale must lie in (0, 1] (small ignores it).
func Preset(name string, scale float64, seed uint64) (SynthConfig, error) {
	if !(scale > 0 && scale <= 1) {
		return SynthConfig{}, fmt.Errorf("scale must be in (0,1], got %g", scale)
	}
	switch name {
	case "small":
		return Small(seed), nil
	case "news20s", "news20":
		return News20Like(scale, seed), nil
	case "urls", "url":
		return URLLike(scale, seed), nil
	case "kddas", "kdda":
		return KDDALike(scale, seed), nil
	case "kddbs", "kddb":
		return KDDBLike(scale, seed), nil
	}
	return SynthConfig{}, fmt.Errorf("unknown dataset preset %q (want small, news20s, urls, kddas or kddbs)", name)
}

// Presets returns the four paper-analog configurations at the given
// scale, in Table-1 order.
func Presets(scale float64, seed uint64) []SynthConfig {
	return []SynthConfig{
		News20Like(scale, seed),
		URLLike(scale, seed+1),
		KDDALike(scale, seed+2),
		KDDBLike(scale, seed+3),
	}
}
