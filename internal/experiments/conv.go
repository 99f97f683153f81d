package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/plot"
	"github.com/isasgd/isasgd/internal/solver"
)

// RunKey identifies one training run within a convergence experiment.
type RunKey struct {
	Algo    solver.Algo
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

// ConvResult holds every curve of one dataset's Figure-3/4/5 panel.
type ConvResult struct {
	Dataset   string
	Stats     dataset.Stats
	Step      float64
	Epochs    int
	Threads   []int
	Curves    map[RunKey]metrics.Curve
	Decisions map[RunKey]balance.Decision
}

// Convergence trains the paper's algorithm set on one preset: SGD as the
// sequential baseline, then ASGD and IS-ASGD at every concurrency level,
// plus SVRG-ASGD when withSVRG is set (the paper only affords it on
// News20; "for other three large-scale datasets, SVRG-ASGD fails to
// finish training in a reasonable time").
func (r *Runner) Convergence(ctx context.Context, preset string, withSVRG bool) (*ConvResult, error) {
	d, err := r.Dataset(preset)
	if err != nil {
		return nil, err
	}
	obj := r.Objective()
	res := &ConvResult{
		Dataset:   preset,
		Stats:     dataset.ComputeStats(d, objective.Weights(d.X, obj)),
		Step:      stepFor(preset),
		Epochs:    r.epochsFor(preset),
		Threads:   r.Scale.Threads,
		Curves:    map[RunKey]metrics.Curve{},
		Decisions: map[RunKey]balance.Decision{},
	}

	runs := []RunKey{{Algo: solver.SGD, Threads: 1}}
	for _, tau := range r.Scale.Threads {
		runs = append(runs, RunKey{Algo: solver.ASGD, Threads: tau})
		runs = append(runs, RunKey{Algo: solver.ISASGD, Threads: tau})
		if withSVRG {
			runs = append(runs, RunKey{Algo: solver.SVRGASGD, Threads: tau})
		}
	}

	for _, k := range runs {
		cfg := solver.Config{
			Algo:    k.Algo,
			Epochs:  res.Epochs,
			Step:    res.Step,
			Threads: k.Threads,
			Seed:    r.Seed + uint64(k.Threads)*13 + uint64(k.Algo),
		}
		out, err := solver.Train(ctx, d, obj, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %w", k, preset, err)
		}
		res.Curves[k] = out.Curve
		res.Decisions[k] = out.Decision
	}
	return res, nil
}

// RenderIterative prints the Figure-3 panel for one dataset: RMSE and
// error rate against epochs, one chart pair per concurrency level.
func (r *Runner) RenderIterative(cr *ConvResult) {
	r.section(fmt.Sprintf("Figure 3 (%s): iterative convergence, λ=%g", cr.Dataset, cr.Step))
	for _, tau := range cr.Threads {
		var rmse, errRate []plot.Series
		for _, k := range r.panelKeys(cr, tau) {
			c, ok := cr.Curves[k]
			if !ok {
				continue
			}
			xs := make([]float64, len(c))
			ys := make([]float64, len(c))
			es := make([]float64, len(c))
			for i, p := range c {
				xs[i] = float64(p.Epoch)
				ys[i] = p.RMSE
				es[i] = p.ErrRate
			}
			rmse = append(rmse, plot.Series{Name: k.String(), X: xs, Y: ys})
			errRate = append(errRate, plot.Series{Name: k.String(), X: xs, Y: es})
		}
		r.printf("%s\n", plot.Chart(fmt.Sprintf("RMSE vs epoch, τ=%d", tau), rmse, 64, 14))
		r.printf("%s\n", plot.Chart(fmt.Sprintf("error rate vs epoch, τ=%d", tau), errRate, 64, 14))
	}

	// Numeric endpoint summary — the values the charts end at, plus an
	// iterative comparison point: epochs to reach 1.5× the best error
	// both ASGD and IS-ASGD attain.
	var rows [][]string
	for _, tau := range cr.Threads {
		for _, k := range r.panelKeys(cr, tau) {
			if k.Algo == solver.SGD && tau != cr.Threads[0] {
				continue // print the shared sequential baseline once
			}
			c := cr.Curves[k]
			f := c.Final()
			rows = append(rows, []string{
				k.String(),
				fmt.Sprintf("%.5f", f.RMSE),
				fmt.Sprintf("%.5f", f.BestErr),
				fmt.Sprintf("%.3f", f.Wall.Seconds()),
			})
		}
	}
	r.printf("%s\n", plot.Table([]string{"run", "final RMSE", "final best err", "train (s)"}, rows))
}

// RenderAbsolute prints the Figure-4 panel: RMSE against wall-clock and
// the "optimum marker" comparison — the time ASGD takes to hit its best
// error rate versus the time IS-ASGD takes to reach the same level.
func (r *Runner) RenderAbsolute(cr *ConvResult) {
	r.section(fmt.Sprintf("Figure 4 (%s): absolute convergence, λ=%g", cr.Dataset, cr.Step))
	var rows [][]string
	for _, tau := range cr.Threads {
		var series []plot.Series
		for _, k := range r.panelKeys(cr, tau) {
			c, ok := cr.Curves[k]
			if !ok {
				continue
			}
			xs := make([]float64, len(c))
			ys := make([]float64, len(c))
			for i, p := range c {
				xs[i] = p.Wall.Seconds()
				ys[i] = p.RMSE
			}
			series = append(series, plot.Series{Name: k.String(), X: xs, Y: ys})
		}
		r.printf("%s\n", plot.Chart(fmt.Sprintf("RMSE vs wall-clock (s), τ=%d", tau), series, 64, 14))

		if sp, ok := r.optimumSpeedup(cr, tau); ok {
			rows = append(rows, []string{
				fmt.Sprintf("%d", tau),
				fmt.Sprintf("%.5f", sp.Err),
				fmt.Sprintf("%.3f", sp.SlowSec),
				fmt.Sprintf("%.3f", sp.FastSec),
				fmt.Sprintf("%.2fx", sp.Speedup),
			})
		}
	}
	if len(rows) > 0 {
		r.printf("time for IS-ASGD to reach ASGD's optimum error (the red-circle/blue-dot comparison):\n%s\n",
			plot.Table([]string{"τ", "ASGD optimum err", "ASGD (s)", "IS-ASGD (s)", "speedup"}, rows))
	}
}

// optimumSpeedup computes the Figure-4 marker comparison for one
// concurrency level: the time ASGD takes to reach its optimum error
// versus the time IS-ASGD takes to reach the same level. When IS-ASGD's
// own optimum is worse than ASGD's (possible at small scales), the
// comparison falls back to the tightest level both curves reach, so the
// marker is always well defined.
func (r *Runner) optimumSpeedup(cr *ConvResult, tau int) (metrics.SpeedupPoint, bool) {
	asgd, ok1 := cr.Curves[RunKey{Algo: solver.ASGD, Threads: tau}]
	is, ok2 := cr.Curves[RunKey{Algo: solver.ISASGD, Threads: tau}]
	if !ok1 || !ok2 {
		return metrics.SpeedupPoint{}, false
	}
	opt := math.Max(asgd.BestErrRate(), is.BestErrRate())
	ts, okS := metrics.TimeToReach(asgd, opt)
	tf, okF := metrics.TimeToReach(is, opt)
	if !okS || !okF || tf <= 0 {
		return metrics.SpeedupPoint{}, false
	}
	return metrics.SpeedupPoint{Err: opt, SlowSec: ts, FastSec: tf, Speedup: ts / tf}, true
}

// SpeedupSummary aggregates one dataset × concurrency Figure-5 slice.
type SpeedupSummary struct {
	Dataset string
	Threads int
	// MeanOverASGD / MeanOverSGD: average speedup across the error grid.
	MeanOverASGD float64
	MeanOverSGD  float64
	// OptimumOverASGD: speedup reaching ASGD's optimum (Figure 4 marker).
	OptimumOverASGD float64
}

// RenderSpeedups prints the Figure-5 slices and returns their summaries.
func (r *Runner) RenderSpeedups(cr *ConvResult) []SpeedupSummary {
	r.section(fmt.Sprintf("Figure 5 (%s): error-rate → absolute speedup slices", cr.Dataset))
	sgd := cr.Curves[RunKey{Algo: solver.SGD, Threads: 1}]
	var out []SpeedupSummary
	var rows [][]string
	for _, tau := range cr.Threads {
		asgd := cr.Curves[RunKey{Algo: solver.ASGD, Threads: tau}]
		is := cr.Curves[RunKey{Algo: solver.ISASGD, Threads: tau}]
		if asgd == nil || is == nil {
			continue
		}
		levels := metrics.ErrLevels(asgd, is, r.Scale.SpeedupK)
		gridA := metrics.SpeedupGrid(asgd, is, levels)
		gridS := metrics.SpeedupGrid(sgd, is, metrics.ErrLevels(sgd, is, r.Scale.SpeedupK))
		s := SpeedupSummary{
			Dataset:      cr.Dataset,
			Threads:      tau,
			MeanOverASGD: metrics.MeanSpeedup(gridA),
			MeanOverSGD:  metrics.MeanSpeedup(gridS),
		}
		if sp, ok := r.optimumSpeedup(cr, tau); ok {
			s.OptimumOverASGD = sp.Speedup
		}
		out = append(out, s)

		var series []plot.Series
		xs := make([]float64, len(gridA))
		ys := make([]float64, len(gridA))
		for i, g := range gridA {
			xs[i] = g.Err
			ys[i] = g.Speedup
		}
		series = append(series, plot.Series{Name: "over ASGD", X: xs, Y: ys})
		r.printf("%s\n", plot.Chart(fmt.Sprintf("speedup of IS-ASGD vs error level, τ=%d", tau), series, 64, 10))

		rows = append(rows, []string{
			fmt.Sprintf("%d", tau),
			fmt.Sprintf("%.2fx", s.MeanOverASGD),
			fmt.Sprintf("%.2fx", s.OptimumOverASGD),
			fmt.Sprintf("%.2fx", s.MeanOverSGD),
		})
	}
	r.printf("%s\n", plot.Table(
		[]string{"τ", "mean speedup over ASGD", "optimum speedup over ASGD", "mean speedup over SGD"},
		rows,
	))
	return out
}

// panelKeys lists the runs shown in one concurrency panel, in the
// paper's legend order (SGD, ASGD, IS-ASGD, SVRG-ASGD).
func (r *Runner) panelKeys(cr *ConvResult, tau int) []RunKey {
	keys := []RunKey{
		{Algo: solver.SGD, Threads: 1},
		{Algo: solver.ASGD, Threads: tau},
		{Algo: solver.ISASGD, Threads: tau},
		{Algo: solver.SVRGASGD, Threads: tau},
	}
	out := keys[:0]
	for _, k := range keys {
		if _, ok := cr.Curves[k]; ok {
			out = append(out, k)
		}
	}
	return out
}

// PaperSpeedupBands are the Section-4.2 summary claims: "the average
// speedups of IS-ASGD over ASGD range from 1.26 to 1.97 while the
// optimum speedups range from 1.13 to 1.54"; raw-throughput overhead of
// IS is "typically 7.7% to 1.1%".
var PaperSpeedupBands = struct {
	MeanLo, MeanHi         float64
	OptimumLo, OptimumHi   float64
	OverheadLo, OverheadHi float64
}{1.26, 1.97, 1.13, 1.54, 0.011, 0.077}

// SummaryResult aggregates the whole Figure-3/4/5 sweep.
type SummaryResult struct {
	Conv      map[string]*ConvResult
	Speedups  []SpeedupSummary
	MeanRange [2]float64 // observed [min,max] mean speedup over ASGD
	OptRange  [2]float64 // observed [min,max] optimum speedup over ASGD
}

// Summary runs the full convergence sweep over all four presets (SVRG on
// the News20 analog only, as in the paper), renders the three figure
// views for each, and aggregates the Section-4.2 summary numbers.
func (r *Runner) Summary(ctx context.Context) (*SummaryResult, error) {
	res := &SummaryResult{Conv: map[string]*ConvResult{}}
	res.MeanRange = [2]float64{math.Inf(1), math.Inf(-1)}
	res.OptRange = [2]float64{math.Inf(1), math.Inf(-1)}
	for _, cfg := range r.presets() {
		withSVRG := cfg.Name == "news20s"
		cr, err := r.Convergence(ctx, cfg.Name, withSVRG)
		if err != nil {
			return nil, err
		}
		res.Conv[cfg.Name] = cr
		r.RenderIterative(cr)
		r.RenderAbsolute(cr)
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
	r.section("Section 4.2 summary: IS-ASGD speedups over ASGD")
	r.printf("measured mean speedup range: %.2fx – %.2fx  (paper: %.2fx – %.2fx)\n",
		res.MeanRange[0], res.MeanRange[1], PaperSpeedupBands.MeanLo, PaperSpeedupBands.MeanHi)
	r.printf("measured optimum speedup range: %.2fx – %.2fx  (paper: %.2fx – %.2fx)\n",
		res.OptRange[0], res.OptRange[1], PaperSpeedupBands.OptimumLo, PaperSpeedupBands.OptimumHi)
	return res, nil
}
