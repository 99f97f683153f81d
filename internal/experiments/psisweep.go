package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/core"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
)

// PsiRow is one ψ level of the sweep.
type PsiRow struct {
	TargetPsi    float64
	MeasuredPsi  float64
	IterSpeedup  float64 // mean epochs(ASGD)/epochs(IS-ASGD) over the error grid
	AdaptSpeedup float64 // same, for IS-ASGD with gradient-norm importance
	FinalErrASGD float64
	FinalErrIS   float64
	FinalErrAd   float64
}

// PsiSweepResult is the Eq.-15 scaling check.
type PsiSweepResult struct {
	Rows []PsiRow
}

// PsiSweep tests the paper's Section-2.2 scaling claim directly: the
// convergence-bound improvement of IS grows as ψ = (ΣL)²/(nΣL²) falls
// (Eq. 13 vs Eq. 14). The paper's own datasets only span ψ ∈
// [0.877, 0.972], where the predicted gain is ≤ 12%; this sweep extends
// the axis to ψ ≈ 0.1, where importance weighting should dominate.
// The comparison is on the iterative axis, by Figure 5's rule (epochs
// to reach common error levels, averaged). Each arm runs on the delayed
// executor (core.Engine.RunEpochDelayed) instead of on threads: the scale's
// largest thread count P becomes P workers whose updates each read the
// model τ = P − 1 writes before they are applied, so the table repeats
// bit for bit at a seed.
func (r *Runner) PsiSweep(ctx context.Context) (*PsiSweepResult, error) {
	r.section("ψ sweep: IS-ASGD iterative gain vs spectrum skew (Eq. 15)")
	obj := r.Objective()
	threads := r.widest()
	res := &PsiSweepResult{}
	var rows [][]string
	for _, psi := range []float64{0.97, 0.9, 0.6, 0.3, 0.1} {
		sigma := math.Sqrt(-math.Log(psi) / 4) // ψ = e^{−4σ²} for L ∝ ‖x‖²
		cfg := dataset.KDDALike(r.Scale.DataScale*0.25, r.Seed+40)
		cfg.Name = fmt.Sprintf("psi%.2f", psi)
		cfg.NormSigma = sigma
		cfg.TargetRho = 0 // keep unit-scale norms so runs are comparable
		d, err := dataset.Synthesize(cfg)
		if err != nil {
			return nil, err
		}
		l := objective.Weights(d.X, obj)
		st := dataset.ComputeStats(d, l)

		epochs := r.epochsFor("kddas")
		// importance "" is the uniform ASGD arm.
		run := func(importance string, pb bool) (metrics.Curve, error) {
			m := model.NewRacy(d.Dim())
			var e *core.Engine
			if importance == "" {
				e, err = core.NewASGD(d, obj, m, threads, r.Seed+41)
			} else {
				e, err = core.NewISASGDOpts(d, obj, m, threads, core.ISOptions{
					Mode: balance.Auto, Seed: r.Seed + 41, Importance: importance, PartialBias: pb,
				})
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: ψ sweep %s %q: %w", cfg.Name, importance, err)
			}
			return delayedCurve(ctx, d, obj, e, epochs, 0.5, threads-1)
		}
		asgd, err := run("", false)
		if err != nil {
			return nil, err
		}
		is, err := run("bound", false)
		if err != nil {
			return nil, err
		}
		// Gradient-norm weights are always mixed with uniform: a row
		// whose recorded gradient vanished would otherwise park near
		// probability 0, where the 1/(n·p_i) correction explodes the step.
		// The first epoch, which samples the static bound, is mixed too.
		adaptive, err := run("grad", true)
		if err != nil {
			return nil, err
		}
		row := PsiRow{
			TargetPsi:    psi,
			MeasuredPsi:  st.Psi,
			IterSpeedup:  metrics.MeanSpeedup(r.speedups(asgd, is)),
			AdaptSpeedup: metrics.MeanSpeedup(r.speedups(asgd, adaptive)),
			FinalErrASGD: asgd.BestErrRate(),
			FinalErrIS:   is.BestErrRate(),
			FinalErrAd:   adaptive.BestErrRate(),
		}
		res.Rows = append(res.Rows, row)
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", row.TargetPsi),
			fmt.Sprintf("%.3f", row.MeasuredPsi),
			fmt.Sprintf("%.2fx", row.IterSpeedup),
			fmt.Sprintf("%.2fx", row.AdaptSpeedup),
			fmt.Sprintf("%.5f", row.FinalErrASGD),
			fmt.Sprintf("%.5f", row.FinalErrIS),
			fmt.Sprintf("%.5f", row.FinalErrAd),
		})
	}
	r.table([]string{"target ψ", "measured ψ", "static IS speedup", "adaptive IS speedup", "ASGD err", "static-IS err", "adaptive-IS err"}, rows)
	r.printf("Each arm runs %d workers on the delayed executor (τ = %d), so the\n", threads, threads-1)
	r.printf("table repeats bit for bit at a seed. Eq. 15 predicts the static-IS\n")
	r.printf("gain grows as ψ falls. In this generator large-norm rows also have\n")
	r.printf("large margins (easy samples), so static Lipschitz weights\n")
	r.printf("over-sample already-solved points, more so at high skew. Adaptive\n")
	r.printf("Eq.-11 weights, the gradient norms each epoch's updates record\n")
	r.printf("(mixed with uniform so 1/(n·p_i) ≤ 2), correct for that.\n")
	return res, nil
}
