package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/core"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/plot"
	"github.com/isasgd/isasgd/internal/solver"
)

// AblBalanceRow is one balancing-mode result.
type AblBalanceRow struct {
	Mode      balance.Mode
	Imbalance float64
	FinalRMSE float64
	FinalErr  float64
}

// AblBalanceResult compares shard-preparation strategies.
type AblBalanceResult struct {
	Rows []AblBalanceRow
}

// AblationBalancing quantifies the Section-2.4 design choice on a
// deliberately skewed dataset (heavy-tailed L): head–tail balancing vs
// random shuffle vs the sorted worst case vs greedy LPT. The paper's
// prediction: sorted suffers (maximum Φ distortion), balance ≈ LPT ≈
// best, shuffle adequate when n is large.
func (r *Runner) AblationBalancing(ctx context.Context) (*AblBalanceResult, error) {
	r.section("Ablation: shard preparation (Sec. 2.4)")
	cfg := dataset.KDDALike(r.Scale.DataScale*0.5, r.Seed+7)
	cfg.Name = "skewed"
	cfg.NormSigma = 0.5 // exaggerate importance skew: ψ = e^{−4σ²} ≈ 0.37
	cfg.TargetRho = 1e-2
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		return nil, err
	}
	obj := r.Objective()
	tau := r.Scale.Threads[len(r.Scale.Threads)-1]
	res := &AblBalanceResult{}
	var rows [][]string
	for _, mode := range []balance.Mode{balance.ForceBalance, balance.ForceShuffle, balance.Sorted, balance.LPT} {
		out, err := solver.Train(ctx, d, obj, solver.Config{
			Algo: solver.ISASGD, Epochs: r.Scale.EpochsA, Step: 0.5,
			Threads: tau, Seed: r.Seed + 21, Balance: mode,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: balancing mode %v: %w", mode, err)
		}
		row := AblBalanceRow{
			Mode:      mode,
			Imbalance: out.Decision.Imbalance,
			FinalRMSE: out.Curve.Final().RMSE,
			FinalErr:  out.Curve.Final().BestErr,
		}
		res.Rows = append(res.Rows, row)
		rows = append(rows, []string{
			mode.String(),
			fmt.Sprintf("%.4f", row.Imbalance),
			fmt.Sprintf("%.5f", row.FinalRMSE),
			fmt.Sprintf("%.5f", row.FinalErr),
		})
	}
	r.printf("%s\n", plot.Table(
		[]string{"mode", "Φ imbalance", "final RMSE", "final best err"},
		rows,
	))
	return res, nil
}

// AblSVRGResult compares strict SVRG with the public-code skip-µ
// approximation.
type AblSVRGResult struct {
	Strict  metrics.Curve
	SkipMu  metrics.Curve
	MaxDiff float64 // max |RMSE_strict − RMSE_skip| across epochs
}

// AblationSVRGSkipMu reproduces the paper's Section-1.2 observation that
// the public SVRG-ASGD code, which applies n·µ once per epoch instead of
// µ every iteration, yields a convergence curve "far from the literature
// version".
func (r *Runner) AblationSVRGSkipMu(ctx context.Context) (*AblSVRGResult, error) {
	r.section("Ablation: strict SVRG vs public-code skip-µ (Sec. 1.2)")
	d, err := r.Dataset("news20s")
	if err != nil {
		return nil, err
	}
	obj := r.Objective()
	res := &AblSVRGResult{}
	for _, skip := range []bool{false, true} {
		out, err := solver.Train(ctx, d, obj, solver.Config{
			Algo: solver.SVRGSGD, Epochs: r.Scale.EpochsA, Step: 0.1,
			Seed: r.Seed + 4, SkipMu: skip,
		})
		if err != nil {
			return nil, err
		}
		if skip {
			res.SkipMu = out.Curve
		} else {
			res.Strict = out.Curve
		}
	}
	var series []plot.Series
	for _, v := range []struct {
		name string
		c    metrics.Curve
	}{{"strict", res.Strict}, {"skip-µ", res.SkipMu}} {
		xs := make([]float64, len(v.c))
		ys := make([]float64, len(v.c))
		for i, p := range v.c {
			xs[i] = float64(p.Epoch)
			ys[i] = p.RMSE
		}
		series = append(series, plot.Series{Name: v.name, X: xs, Y: ys})
	}
	for i := 0; i < len(res.Strict) && i < len(res.SkipMu); i++ {
		d := res.Strict[i].RMSE - res.SkipMu[i].RMSE
		if d < 0 {
			d = -d
		}
		if d > res.MaxDiff {
			res.MaxDiff = d
		}
	}
	r.printf("%s\n", plot.Chart("SVRG-SGD RMSE vs epoch: strict vs skip-µ", series, 64, 12))
	r.printf("max per-epoch RMSE divergence: %.5f\n", res.MaxDiff)
	return res, nil
}

// AblModelRow is one model-kind measurement.
type AblModelRow struct {
	Kind      model.Kind
	TrainTime time.Duration
	FinalRMSE float64
}

// AblModelResult compares the race-free CAS model with the paper's
// plain racy Hogwild writes.
type AblModelResult struct {
	Rows []AblModelRow
}

// AblationModelKind measures what the race-free CAS discipline costs
// relative to true Hogwild stores, and confirms both converge. Skipped
// automatically under the race detector.
func (r *Runner) AblationModelKind(ctx context.Context) (*AblModelResult, error) {
	r.section("Ablation: atomic CAS vs racy Hogwild model")
	d, err := r.Dataset("news20s")
	if err != nil {
		return nil, err
	}
	obj := r.Objective()
	tau := r.Scale.Threads[len(r.Scale.Threads)-1]
	kinds := []model.Kind{model.KindAtomic}
	if !model.RaceEnabled {
		kinds = append(kinds, model.KindRacy)
	}
	res := &AblModelResult{}
	var rows [][]string
	for _, kind := range kinds {
		out, err := solver.Train(ctx, d, obj, solver.Config{
			Algo: solver.ASGD, Epochs: r.Scale.EpochsA, Step: 0.5,
			Threads: tau, Seed: r.Seed + 5, ModelKind: kind,
		})
		if err != nil {
			return nil, err
		}
		row := AblModelRow{Kind: kind, TrainTime: out.TrainTime, FinalRMSE: out.Curve.Final().RMSE}
		res.Rows = append(res.Rows, row)
		rows = append(rows, []string{kind.String(), fmtDur(row.TrainTime), fmt.Sprintf("%.5f", row.FinalRMSE)})
	}
	r.printf("%s\n", plot.Table([]string{"model", "train time", "final RMSE"}, rows))
	return res, nil
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
func (r *Runner) AblationSequence(ctx context.Context) (*AblSequenceResult, error) {
	r.section("Ablation: IS sequence regeneration vs shuffle (Sec. 4.2)")
	d, err := r.Dataset("news20s")
	if err != nil {
		return nil, err
	}
	obj := r.Objective()
	res := &AblSequenceResult{}
	for _, shuffle := range []bool{false, true} {
		out, err := solver.Train(ctx, d, obj, solver.Config{
			Algo: solver.ISSGD, Epochs: r.Scale.EpochsA, Step: 0.5,
			Seed: r.Seed + 6, ShuffleSequence: shuffle,
		})
		if err != nil {
			return nil, err
		}
		if shuffle {
			res.Shuffle = out.Curve
		} else {
			res.Regen = out.Curve
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
	r.printf("%s\n", plot.Table([]string{"epoch", "RMSE (regenerate)", "RMSE (shuffle once)"}, rows))
	r.printf("final RMSE gap (shuffle − regenerate): %+.5f\n", res.FinalGap)
	return res, nil
}

// AblAdaptiveRow is one sampling-scheme result.
type AblAdaptiveRow struct {
	Name      string
	FinalRMSE float64
	FinalErr  float64
	TrainTime time.Duration
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
// granularity.
func (r *Runner) AblationAdaptiveIS(ctx context.Context) (*AblAdaptiveResult, error) {
	r.section("Ablation: static vs partially-biased vs adaptive IS (Eq. 11/12)")
	d, err := r.Dataset("kddbs")
	if err != nil {
		return nil, err
	}
	obj := r.Objective()
	tau := r.Scale.Threads[len(r.Scale.Threads)-1]
	schemes := []struct {
		name string
		mut  func(*solver.Config)
	}{
		{"static (Eq.12)", func(*solver.Config) {}},
		{"partial-bias", func(c *solver.Config) { c.PartialBias = true }},
		{"adaptive (Eq.11, per epoch)", func(c *solver.Config) { c.Importance = "grad" }},
	}
	res := &AblAdaptiveResult{}
	var rows [][]string
	for _, s := range schemes {
		cfg := solver.Config{
			Algo: solver.ISASGD, Epochs: r.epochsFor("kddbs"), Step: 0.5,
			Threads: tau, Seed: r.Seed + 30,
		}
		s.mut(&cfg)
		out, err := solver.Train(ctx, d, obj, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: adaptive ablation %s: %w", s.name, err)
		}
		row := AblAdaptiveRow{
			Name:      s.name,
			FinalRMSE: out.Curve.Final().RMSE,
			FinalErr:  out.Curve.Final().BestErr,
			TrainTime: out.TrainTime,
		}
		res.Rows = append(res.Rows, row)
		rows = append(rows, []string{
			s.name,
			fmt.Sprintf("%.5f", row.FinalRMSE),
			fmt.Sprintf("%.5f", row.FinalErr),
			fmtDur(row.TrainTime),
		})
	}
	r.printf("%s\n", plot.Table([]string{"scheme", "final RMSE", "final best err", "train time"}, rows))
	return res, nil
}

// OverheadResult quantifies the online cost of IS relative to ASGD.
type OverheadResult struct {
	SetupTime   time.Duration // distribution + sequence construction
	EpochTimeIS time.Duration
	EpochASGD   time.Duration
	Fraction    float64 // setup / (setup + full IS training run)
}

// OverheadIS measures the paper's Section-4.2 claim that IS's sampling
// preparation costs a few percent at most: the one-off construction of
// the sampling distributions and sequences, against epoch times.
func (r *Runner) OverheadIS(ctx context.Context) (*OverheadResult, error) {
	r.section("IS overhead: distribution/sequence construction vs training (Sec. 4.2)")
	d, err := r.Dataset("kddas")
	if err != nil {
		return nil, err
	}
	obj := r.Objective()
	tau := r.Scale.Threads[len(r.Scale.Threads)-1]

	start := time.Now()
	eng, err := core.NewISASGD(d, obj, model.NewAtomic(d.Dim()), tau, balance.Auto, 0, r.Seed, false)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)

	start = time.Now()
	eng.RunEpoch(0.5)
	epochIS := time.Since(start)

	engA, err := core.NewASGD(d, obj, model.NewAtomic(d.Dim()), tau, r.Seed)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	engA.RunEpoch(0.5)
	epochASGD := time.Since(start)

	epochs := r.epochsFor("kddas")
	res := &OverheadResult{
		SetupTime:   setup,
		EpochTimeIS: epochIS,
		EpochASGD:   epochASGD,
		Fraction:    setup.Seconds() / (setup.Seconds() + float64(epochs)*epochIS.Seconds()),
	}
	r.printf("setup %.3fs; IS epoch %.3fs; ASGD epoch %.3fs; setup fraction of a %d-epoch run: %.1f%% (paper: 1.1%%–7.7%%)\n",
		setup.Seconds(), epochIS.Seconds(), epochASGD.Seconds(), epochs, 100*res.Fraction)
	_ = ctx
	return res, nil
}
