package experiments

import (
	"fmt"
	"math"

	"github.com/isasgd/isasgd/internal/conflict"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/xrand"
)

// TheoryRow holds the Section-3 quantities for one preset.
type TheoryRow struct {
	Dataset  string
	DeltaBar float64
	TauBound float64
	KIS      float64 // Eq. 26 iteration bound (IS)
	KUniform float64 // Eq. 28 bound (uniform)
	InRegion map[int]bool
}

// TheoryResult is the Section-3 check across presets.
type TheoryResult struct {
	Rows []TheoryRow
}

// eq27Params builds the Section-3 constants of d at conflict degree
// deltaBar, for Theory and the τ sweep alike. Two proxies are
// documented here rather than hidden: µ is taken to be the
// regularization strength (the L1 objective is not strongly convex; η
// is the customary surrogate curvature), and σ² = E‖∇φ_i(w₀)‖² is
// evaluated in closed form at w₀ = 0, where the logistic derivative is
// −y/2 and hence σ² = mean(‖x_i‖²)/4 — an upper proxy for the residual
// at the optimum.
func (r *Runner) eq27Params(d *dataset.Dataset, deltaBar float64) conflict.Params {
	st := dataset.ComputeStats(d, objective.Weights(d.X, r.Objective()))
	sigma2 := 0.0
	for i := 0; i < d.N(); i++ {
		sigma2 += d.X.Row(i).NormSq()
	}
	return conflict.Params{
		N: d.N(), DeltaBar: deltaBar, Mu: r.eta(),
		MeanL: st.MeanL, InfL: st.MinL, SupL: st.MaxL,
		Sigma2: sigma2 / (4 * float64(d.N())), Eps: 0.01, Eps0: 1,
	}
}

// Theory evaluates the paper's Section-3 bounds on each preset: the
// conflict-graph average degree Δ̄ (Monte-Carlo estimate), the Eq.-27
// admissible delay τ, and the Eq.-26/28 iteration bounds (proxies in
// eq27Params). The region is checked at the delay the reproduction's
// executor applies for each thread count P, τ = P − 1.
func (r *Runner) Theory() (*TheoryResult, error) {
	r.section("Section 3: conflict graph and convergence bounds")
	res := &TheoryResult{}
	rng := xrand.New(r.Seed + 55)
	var rows [][]string
	for _, cfg := range r.presets() {
		d, err := r.Dataset(cfg.Name)
		if err != nil {
			return nil, err
		}
		deltaBar := conflict.AverageDegreeMC(d, 200_000, rng)
		p := r.eq27Params(d, deltaBar)
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: theory params for %s: %w", cfg.Name, err)
		}
		row := TheoryRow{
			Dataset:  cfg.Name,
			DeltaBar: deltaBar,
			TauBound: p.TauBound(),
			KIS:      p.IterationBound(),
			KUniform: p.UniformIterationBound(),
			InRegion: map[int]bool{},
		}
		for _, threads := range r.Scale.Threads {
			row.InRegion[threads-1] = p.SpeedupRegion(threads - 1)
		}
		res.Rows = append(res.Rows, row)
		rows = append(rows, []string{
			cfg.Name,
			fmt.Sprintf("%.1f", row.DeltaBar),
			fmt.Sprintf("%.3g", float64(d.N())/math.Max(row.DeltaBar, 1e-9)),
			fmt.Sprintf("%.3g", row.TauBound),
			fmt.Sprintf("%.3g", row.KIS),
			fmt.Sprintf("%.3g", row.KUniform),
		})
	}
	r.table([]string{"dataset", "Δ̄ (MC)", "n/Δ̄", "τ bound (Eq.27)", "k_IS (Eq.26)", "k_uniform (Eq.28)"}, rows)
	for _, row := range res.Rows {
		var in, out []int
		for _, threads := range r.Scale.Threads {
			if tau := threads - 1; row.InRegion[tau] {
				in = append(in, tau)
			} else {
				out = append(out, tau)
			}
		}
		r.printf("%s: τ = P − 1 within Eq.27 bound %v; outside %v\n", row.Dataset, in, out)
	}
	r.printf("\nNote: with Zipf feature popularity (as in real text/click data) a few\n")
	r.printf("head features touch most rows, so Δ̄ ≈ n and the n/Δ̄ term of Eq. 27 is\n")
	r.printf("vacuously small — the bound is far more conservative than observed\n")
	r.printf("behaviour, exactly as with Hogwild's analysis on dense-ish real data.\n")
	return res, nil
}
