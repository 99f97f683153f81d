package experiments

import (
	"context"
	"fmt"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/core"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/model"
)

// AblBalanceRow is one balancing-mode result.
type AblBalanceRow struct {
	Mode      balance.Mode
	Imbalance float64 // (max−min)/mean over shard Φ_a
	Inflation float64 // K·ΣΦ_a²/(ΣΦ_a)², the IS second-moment factor
	FinalRMSE float64
	FinalErr  float64
}

// AblBalanceResult compares shard-preparation strategies.
type AblBalanceResult struct {
	Rows []AblBalanceRow
}

// AblationBalancing quantifies the Section-2.4 design choice on a
// deliberately skewed dataset (heavy-tailed L): Algorithm 3's head–tail
// balancing against the seeded shuffle the library runs, each IS-ASGD
// run as P workers at τ = P − 1 on the delayed executor. The paper
// predicts that balancing wins; on skewed L the contiguous cut of the
// head–tail order hands one shard both the lightest and the heaviest
// rows, and the shuffle's Φ come out closer.
func (r *Runner) AblationBalancing(ctx context.Context) (*AblBalanceResult, error) {
	r.section("Ablation: shard preparation (Sec. 2.4)")
	d, err := dataset.Synthesize(r.skewedCorpus())
	if err != nil {
		return nil, err
	}
	obj := r.Objective()
	p := r.widest()
	res := &AblBalanceResult{}
	var rows [][]string
	for _, mode := range []balance.Mode{balance.ForceBalance, balance.ForceShuffle} {
		e, err := core.NewISASGD(d, obj, model.NewRacy(d.Dim()), p, mode, r.Seed+21, false)
		if err != nil {
			return nil, fmt.Errorf("experiments: balancing mode %v: %w", mode, err)
		}
		c, err := delayedCurve(ctx, d, obj, e, r.Scale.EpochsA, 0.5, p-1)
		if err != nil {
			return nil, err
		}
		row := AblBalanceRow{
			Mode:      mode,
			Imbalance: e.Decision().Imbalance,
			Inflation: e.Decision().Inflation,
			FinalRMSE: c.Final().RMSE,
			FinalErr:  c.Final().BestErr,
		}
		res.Rows = append(res.Rows, row)
		rows = append(rows, []string{
			mode.String(),
			fmt.Sprintf("%.4f", row.Imbalance),
			fmt.Sprintf("%.5f", row.Inflation),
			fmt.Sprintf("%.5f", row.FinalRMSE),
			fmt.Sprintf("%.5f", row.FinalErr),
		})
	}
	r.table([]string{"mode", "Φ imbalance", "inflation", "final RMSE", "final best err"}, rows)
	return res, nil
}

// skewedCorpus is the balancing ablation's corpus: the kdda analog at
// half the runner's scale with heavy-tailed importance.
func (r *Runner) skewedCorpus() dataset.SynthConfig {
	cfg := dataset.KDDALike(r.Scale.DataScale*0.5, r.Seed+7)
	cfg.Name = "skewed"
	cfg.NormSigma = 0.5 // exaggerate importance skew: ψ = e^{−4σ²} ≈ 0.37
	cfg.TargetRho = 1e-2
	return cfg
}

// AblSequenceResult compares per-epoch sequence regeneration (default)
// with the paper's generate-once-and-shuffle approximation.
type AblSequenceResult struct {
	Regen   metrics.Curve
	Shuffle metrics.Curve
	// FinalGap is RMSE(shuffle) − RMSE(regen) at the last epoch; positive
	// means the shuffle approximation converged to a worse point.
	FinalGap float64
}

// AblationSequence quantifies the cost of the paper's Section-4.2
// sequence approximation ("generate the sample sequence for each thread
// only once and simply shuffle it every epoch"). Reusing one draw fixes
// the empirical sample weights k_i/(n·p_i) for the whole run, so
// training optimizes a persistently reweighted objective; at the paper's
// dataset sizes the effect is invisible, but at scaled-down n it is
// measurable — which is why regeneration is this repository's default.
// Both arms are IS-SGD, one worker at τ = 0 on the delayed executor.
func (r *Runner) AblationSequence(ctx context.Context) (*AblSequenceResult, error) {
	r.section("Ablation: IS sequence regeneration vs shuffle (Sec. 4.2)")
	d, err := r.Dataset("news20s")
	if err != nil {
		return nil, err
	}
	obj := r.Objective()
	res := &AblSequenceResult{}
	for _, shuffle := range []bool{false, true} {
		e, err := core.NewISSGD(d, obj, model.NewRacy(d.Dim()), r.Seed+6, shuffle)
		if err != nil {
			return nil, err
		}
		c, err := delayedCurve(ctx, d, obj, e, r.Scale.EpochsA, 0.5, 0)
		if err != nil {
			return nil, err
		}
		if shuffle {
			res.Shuffle = c
		} else {
			res.Regen = c
		}
	}
	res.FinalGap = res.Shuffle.Final().RMSE - res.Regen.Final().RMSE
	var rows [][]string
	for i := range res.Regen {
		rows = append(rows, []string{
			fmt.Sprintf("%d", res.Regen[i].Epoch),
			fmt.Sprintf("%.5f", res.Regen[i].RMSE),
			fmt.Sprintf("%.5f", res.Shuffle[i].RMSE),
		})
	}
	r.table([]string{"epoch", "RMSE (regenerate)", "RMSE (shuffle once)"}, rows)
	r.printf("final RMSE gap (shuffle − regenerate): %+.5f\n", res.FinalGap)
	return res, nil
}

// AblAdaptiveRow is one sampling-scheme result.
type AblAdaptiveRow struct {
	Name      string
	FinalRMSE float64
	FinalErr  float64
}

// AblAdaptiveResult compares static Eq.-12 weights, partially biased
// weights, and periodic Eq.-11 re-estimation.
type AblAdaptiveResult struct {
	Rows []AblAdaptiveRow
}

// AblationAdaptiveIS compares three IS weighting schemes on the lowest-ψ
// preset (where IS matters most): the paper's static Lipschitz weights
// (Eq. 12), Needell et al.'s partially biased mixture, and the optimal
// gradient-norm distribution (Eq. 11) read off each epoch's own updates
// — the extension the paper leaves as impractical at per-iteration
// granularity. Each is IS-ASGD as P workers at τ = P − 1 on the delayed
// executor.
func (r *Runner) AblationAdaptiveIS(ctx context.Context) (*AblAdaptiveResult, error) {
	r.section("Ablation: static vs partially-biased vs adaptive IS (Eq. 11/12)")
	d, err := r.Dataset("kddbs")
	if err != nil {
		return nil, err
	}
	obj := r.Objective()
	p := r.widest()
	schemes := []struct {
		name string
		opts core.ISOptions
	}{
		{"static (Eq.12)", core.ISOptions{}},
		{"partial-bias", core.ISOptions{PartialBias: true}},
		{"adaptive (Eq.11, per epoch)", core.ISOptions{Importance: "grad"}},
	}
	res := &AblAdaptiveResult{}
	var rows [][]string
	for _, s := range schemes {
		s.opts.Seed = r.Seed + 30
		e, err := core.NewISASGDOpts(d, obj, model.NewRacy(d.Dim()), p, s.opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: adaptive ablation %s: %w", s.name, err)
		}
		c, err := delayedCurve(ctx, d, obj, e, r.epochsFor("kddbs"), 0.5, p-1)
		if err != nil {
			return nil, err
		}
		row := AblAdaptiveRow{Name: s.name, FinalRMSE: c.Final().RMSE, FinalErr: c.Final().BestErr}
		res.Rows = append(res.Rows, row)
		rows = append(rows, []string{s.name, fmt.Sprintf("%.5f", row.FinalRMSE), fmt.Sprintf("%.5f", row.FinalErr)})
	}
	r.table([]string{"scheme", "final RMSE", "final best err"}, rows)
	return res, nil
}
