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

// RunKey identifies one training run within a convergence experiment.
type RunKey struct {
	Algo    core.Algo
	Threads int
}

// String renders e.g. "is-asgd/8"; sequential algorithms omit the
// count.
func (k RunKey) String() string {
	if k.Threads > 1 {
		return fmt.Sprintf("%s/%d", k.Algo, k.Threads)
	}
	return k.Algo.String()
}

// ConvResult holds every curve of one dataset's Figure-3/5 panel.
type ConvResult struct {
	Dataset   string
	Stats     dataset.Stats
	Step      float64
	Epochs    int
	Threads   []int
	Curves    map[RunKey]metrics.Curve
	Decisions map[RunKey]balance.Decision
}

// Convergence trains the paper's algorithm set on one preset: SGD as
// the sequential baseline, then ASGD and IS-ASGD at every concurrency
// level P, IS-ASGD on the shard plan Algorithm 4 picks. Every run is on the delayed executor: SGD is one worker at
// τ = 0, and P threads are P workers at τ = P − 1.
func (r *Runner) Convergence(ctx context.Context, preset string) (*ConvResult, error) {
	d, err := r.Dataset(preset)
	if err != nil {
		return nil, err
	}
	obj := r.Objective()
	l := objective.Weights(d.X, obj)
	res := &ConvResult{
		Dataset:   preset,
		Stats:     dataset.ComputeStats(d, l),
		Step:      stepFor(preset),
		Epochs:    r.epochsFor(preset),
		Threads:   r.Scale.Threads,
		Curves:    map[RunKey]metrics.Curve{},
		Decisions: map[RunKey]balance.Decision{},
	}

	runs := []RunKey{{Algo: core.SGD, Threads: 1}}
	for _, p := range r.Scale.Threads {
		runs = append(runs, RunKey{Algo: core.ASGD, Threads: p}, RunKey{Algo: core.ISASGD, Threads: p})
	}
	for _, k := range runs {
		m := model.NewRacy(d.Dim())
		seed := r.Seed + uint64(k.Threads)*13 + uint64(k.Algo)
		var e *core.Engine
		if k.Algo == core.ISASGD {
			e, err = core.NewISASGD(d, obj, m, k.Threads, algorithm4(l), seed, false)
		} else {
			e, err = core.NewASGD(d, obj, m, k.Threads, seed)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %w", k, preset, err)
		}
		c, err := delayedCurve(ctx, d, obj, e, res.Epochs, res.Step, k.Threads-1)
		if err != nil {
			return nil, err
		}
		res.Curves[k] = c
		res.Decisions[k] = e.Decision()
	}
	return res, nil
}

// algorithm4 is the paper's Algorithm 4 lines 2–6, which the
// reproduction runs and the library does not: head–tail balancing
// (Algorithm 3) when ρ ≥ ζ on the weights l the engine samples by, a
// shuffle otherwise (the comparison's direction is explained in
// internal/balance).
func algorithm4(l []float64) balance.Mode {
	if balance.Rho(l) >= balance.DefaultZeta {
		return balance.ForceBalance
	}
	return balance.ForceShuffle
}

// RenderIterative prints the Figure-3 panel for one dataset: RMSE and
// best-so-far error rate after each epoch, one table per concurrency
// level.
func (r *Runner) RenderIterative(cr *ConvResult) {
	r.section(fmt.Sprintf("Figure 3 (%s): iterative convergence, λ=%g", cr.Dataset, cr.Step))
	for _, p := range cr.Threads {
		keys := panelKeys(p)
		header := []string{"epoch"}
		for _, col := range []string{"RMSE", "err"} {
			for _, k := range keys {
				header = append(header, k.String()+" "+col)
			}
		}
		var rows [][]string
		for i, pt := range cr.Curves[keys[0]] {
			row := []string{fmt.Sprintf("%d", pt.Epoch)}
			for _, k := range keys {
				row = append(row, fmt.Sprintf("%.5f", cr.Curves[k][i].RMSE))
			}
			for _, k := range keys {
				row = append(row, fmt.Sprintf("%.5f", cr.Curves[k][i].BestErr))
			}
			rows = append(rows, row)
		}
		r.printf("P = %d workers at τ = %d (sgd: 1 worker at τ = 0); err is the best so far:\n", p, p-1)
		r.table(header, rows)
	}
}

// speedups is Figure 5's one speedup rule: the ratio of the epochs the
// slow curve and the fast curve take to reach each of the scale's
// error levels that both reach. Every arm runs n updates an epoch, so
// the ratios are ratios of updates.
func (r *Runner) speedups(slow, fast metrics.Curve) []metrics.SpeedupPoint {
	return metrics.SpeedupGrid(slow, fast, metrics.ErrLevels(slow, fast, r.Scale.SpeedupK))
}

// optimumSpeedup is the paper's optimum marker on the iterative axis:
// the epochs ASGD takes to reach its optimum error against the epochs
// IS-ASGD takes to reach the same level. When IS-ASGD's own optimum is
// worse (possible at small scales), the level is the tightest both
// curves reach. It is 0 when IS-ASGD is there from the start.
func optimumSpeedup(asgd, is metrics.Curve) float64 {
	opt := math.Max(asgd.BestErrRate(), is.BestErrRate())
	return metrics.MeanSpeedup(metrics.SpeedupGrid(asgd, is, []float64{opt}))
}

// SpeedupSummary aggregates one dataset × concurrency Figure-5 slice.
type SpeedupSummary struct {
	Dataset string
	Threads int
	// MeanOverASGD / MeanOverSGD: average speedup across the error grid.
	MeanOverASGD float64
	MeanOverSGD  float64
	// OptimumOverASGD: speedup reaching ASGD's optimum error.
	OptimumOverASGD float64
}

// RenderSpeedups prints the Figure-5 slices and returns their summaries.
func (r *Runner) RenderSpeedups(cr *ConvResult) []SpeedupSummary {
	r.section(fmt.Sprintf("Figure 5 (%s): error rate → speedup in updates", cr.Dataset))
	sgd := cr.Curves[RunKey{Algo: core.SGD, Threads: 1}]
	var out []SpeedupSummary
	var levels, rows [][]string
	for _, p := range cr.Threads {
		asgd := cr.Curves[RunKey{Algo: core.ASGD, Threads: p}]
		is := cr.Curves[RunKey{Algo: core.ISASGD, Threads: p}]
		grid := r.speedups(asgd, is)
		s := SpeedupSummary{
			Dataset:         cr.Dataset,
			Threads:         p,
			MeanOverASGD:    metrics.MeanSpeedup(grid),
			MeanOverSGD:     metrics.MeanSpeedup(r.speedups(sgd, is)),
			OptimumOverASGD: optimumSpeedup(asgd, is),
		}
		out = append(out, s)
		for _, g := range grid {
			levels = append(levels, []string{
				fmt.Sprintf("%d", p),
				fmt.Sprintf("%.5f", g.Err),
				fmt.Sprintf("%.3f", g.SlowEpochs),
				fmt.Sprintf("%.3f", g.FastEpochs),
				fmt.Sprintf("%.2fx", g.Speedup),
			})
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%.2fx", s.MeanOverASGD),
			fmt.Sprintf("%.2fx", s.OptimumOverASGD),
			fmt.Sprintf("%.2fx", s.MeanOverSGD),
		})
	}
	r.table([]string{"P", "error level", "ASGD epochs", "IS-ASGD epochs", "speedup"}, levels)
	r.table([]string{"P", "mean speedup over ASGD", "optimum speedup over ASGD", "mean speedup over SGD"}, rows)
	return out
}

// panelKeys lists the runs shown in one concurrency panel, in the
// paper's legend order (SGD, ASGD, IS-ASGD).
func panelKeys(p int) []RunKey {
	return []RunKey{
		{Algo: core.SGD, Threads: 1},
		{Algo: core.ASGD, Threads: p},
		{Algo: core.ISASGD, Threads: p},
	}
}

// PaperSpeedupBands are the Section-4.2 summary claims: "the average
// speedups of IS-ASGD over ASGD range from 1.26 to 1.97 while the
// optimum speedups range from 1.13 to 1.54".
var PaperSpeedupBands = struct {
	MeanLo, MeanHi       float64
	OptimumLo, OptimumHi float64
}{1.26, 1.97, 1.13, 1.54}

// SummaryResult aggregates the whole Figure-3/5 sweep.
type SummaryResult struct {
	Conv      map[string]*ConvResult
	Speedups  []SpeedupSummary
	MeanRange [2]float64 // observed [min,max] mean speedup over ASGD
	OptRange  [2]float64 // observed [min,max] optimum speedup over ASGD
}

// Summary runs the convergence sweep over all four presets, renders
// Figures 3 and 5 for each, and aggregates the Section-4.2 summary
// numbers.
func (r *Runner) Summary(ctx context.Context) (*SummaryResult, error) {
	res := &SummaryResult{Conv: map[string]*ConvResult{}}
	res.MeanRange = [2]float64{math.Inf(1), math.Inf(-1)}
	res.OptRange = [2]float64{math.Inf(1), math.Inf(-1)}
	for _, cfg := range r.presets() {
		cr, err := r.Convergence(ctx, cfg.Name)
		if err != nil {
			return nil, err
		}
		res.Conv[cfg.Name] = cr
		r.RenderIterative(cr)
		sums := r.RenderSpeedups(cr)
		res.Speedups = append(res.Speedups, sums...)
		for _, s := range sums {
			if s.MeanOverASGD > 0 {
				res.MeanRange[0] = math.Min(res.MeanRange[0], s.MeanOverASGD)
				res.MeanRange[1] = math.Max(res.MeanRange[1], s.MeanOverASGD)
			}
			if s.OptimumOverASGD > 0 {
				res.OptRange[0] = math.Min(res.OptRange[0], s.OptimumOverASGD)
				res.OptRange[1] = math.Max(res.OptRange[1], s.OptimumOverASGD)
			}
		}
	}
	r.section("Section 4.2 summary: IS-ASGD speedups over ASGD, in updates")
	r.printf("measured mean speedup range: %.2fx – %.2fx  (paper: %.2fx – %.2fx)\n",
		res.MeanRange[0], res.MeanRange[1], PaperSpeedupBands.MeanLo, PaperSpeedupBands.MeanHi)
	r.printf("measured optimum speedup range: %.2fx – %.2fx  (paper: %.2fx – %.2fx)\n",
		res.OptRange[0], res.OptRange[1], PaperSpeedupBands.OptimumLo, PaperSpeedupBands.OptimumHi)
	r.printf("The paper's speedups are in wall-clock time on 44 cores; these count\n")
	r.printf("updates on the delayed executor (bench/ measures time).\n")
	return res, nil
}
