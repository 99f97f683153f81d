// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4) on the synthetic dataset analogs:
//
//	Table 1   dataset statistics                     (Runner.Table1)
//	Figure 1  sparse vs dense update size, a count   (Runner.Fig1)
//	Figure 2  importance balancing worked example    (Runner.Fig2)
//	Figure 3  iterative convergence curves           (Runner.Convergence → RenderIterative)
//	Figure 5  error-rate → speedup in updates        (same runs → RenderSpeedups)
//	Sec. 4.2  speedup summary numbers                (Runner.Summary)
//	Sec. 3    conflict-graph / τ-bound theory check  (Runner.Theory)
//	Ablations balancing mode, SVRG skip-µ, sequence, adaptive IS (Runner.Ablation*)
//	Sweeps    ψ (Eq. 15) and exact delay τ (Eq. 27)  (Runner.PsiSweep, Runner.TauSweep)
//
// Each experiment prints the same rows the paper reports, with the
// paper's reference values beside the measured ones where the paper
// gives them, and returns a structured result. Figures print their
// curve values as tables. Absolute numbers are not expected to match
// the paper's 44-core testbed; the shapes (who wins, by what factor,
// where the crossovers are) are the reproduction target.
//
// Every training run but the SVRG skip-µ ablation runs on core's
// delayed executor (core.Engine.RunEpochDelayed): P threads become P
// workers whose gradients each read the model τ = P − 1 writes before
// they are applied, and sequential SGD is one worker at τ = 0. So the
// reports count updates, not seconds, and repeat byte for byte at a
// seed on any machine; testdata/report.golden pins them. Figure 1 is a
// count of touched coordinates. Absolute time is measured only by `bash
// bench/run.sh` (its setup_s and core.is_overhead; see bench/README.md),
// so the paper's Figure 4 (wall-clock axis) has no counterpart here.
// The SVRG-ASGD arm of the News20 panel waits until SVRG runs on
// core.Loop (ROADMAP item 7).
package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/isasgd/isasgd/internal/core"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/objective"
)

// Names lists every experiment Run accepts, in the order it runs them.
// fig3, fig5 and summary name one sweep: any of them runs Summary,
// which prints all three.
var Names = []string{"table1", "fig1", "fig2", "fig3", "fig5", "summary", "theory", "ablations", "psisweep", "tausweep"}

// Run runs the experiments whose names are set in want, in Names order,
// and returns the convergence sweep's result when one ran.
func (r *Runner) Run(ctx context.Context, want map[string]bool) (*SummaryResult, error) {
	var sum *SummaryResult
	steps := []struct {
		names []string
		run   func() error
	}{
		{[]string{"table1"}, func() error { _, err := r.Table1(); return err }},
		{[]string{"fig1"}, func() error { _, err := r.Fig1(); return err }},
		{[]string{"fig2"}, func() error { _, err := r.Fig2(); return err }},
		{[]string{"fig3", "fig5", "summary"}, func() (err error) { sum, err = r.Summary(ctx); return err }},
		{[]string{"theory"}, func() error { _, err := r.Theory(); return err }},
		{[]string{"ablations"}, func() error { _, err := r.AblationBalancing(ctx); return err }},
		{[]string{"ablations"}, func() error { _, err := r.AblationSVRGSkipMu(ctx); return err }},
		{[]string{"ablations"}, func() error { _, err := r.AblationSequence(ctx); return err }},
		{[]string{"ablations"}, func() error { _, err := r.AblationAdaptiveIS(ctx); return err }},
		{[]string{"psisweep"}, func() error { _, err := r.PsiSweep(ctx); return err }},
		{[]string{"tausweep"}, func() error { _, err := r.TauSweep(ctx); return err }},
	}
	for _, s := range steps {
		if !slices.ContainsFunc(s.names, func(n string) bool { return want[n] }) {
			continue
		}
		if err := s.run(); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// Scale bundles the knobs that trade fidelity for runtime.
type Scale struct {
	Name      string
	DataScale float64 // multiplier on preset N and Dim
	Threads   []int   // concurrency levels (the paper's 16/32/44)
	EpochsA   int     // epochs for the news20/url analogs (paper: 15–18)
	EpochsB   int     // epochs for the KDD analogs (paper: 72)
	SpeedupK  int     // number of error levels in Figure-5 grids
}

// Quick is sized for tests and smoke runs (seconds).
func Quick() Scale {
	return Scale{Name: "quick", DataScale: 0.05, Threads: []int{2, 4}, EpochsA: 10, EpochsB: 8, SpeedupK: 6}
}

// Standard is the default harness scale (several minutes end to end).
func Standard() Scale {
	return Scale{Name: "standard", DataScale: 0.5, Threads: []int{4, 8, 16}, EpochsA: 15, EpochsB: 24, SpeedupK: 10}
}

// Full uses the full preset sizes (tens of minutes end to end).
func Full() Scale {
	return Scale{Name: "full", DataScale: 1.0, Threads: []int{4, 8, 16, 24}, EpochsA: 15, EpochsB: 30, SpeedupK: 12}
}

// ScaleByName resolves quick/standard/full.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick(), nil
	case "standard", "":
		return Standard(), nil
	case "full":
		return Full(), nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q (want quick|standard|full)", name)
	}
}

// Runner executes experiments, writing human-readable reports to Out.
type Runner struct {
	Out   io.Writer
	Scale Scale
	Seed  uint64

	// Eta is the L1 regularization strength of the paper's objective;
	// zero selects the default 1e-4.
	Eta float64

	datasets map[string]*dataset.Dataset // cache keyed by preset name
}

// NewRunner returns a Runner printing to out at the given scale.
func NewRunner(out io.Writer, scale Scale, seed uint64) *Runner {
	return &Runner{Out: out, Scale: scale, Seed: seed, datasets: map[string]*dataset.Dataset{}}
}

func (r *Runner) eta() float64 {
	if r.Eta > 0 {
		return r.Eta
	}
	return 1e-4
}

// Objective returns the paper's evaluation objective (L1-regularized
// cross-entropy).
func (r *Runner) Objective() objective.Objective {
	return objective.LogisticL1{Eta: r.eta()}
}

// presets returns the four dataset configurations at the runner's scale.
func (r *Runner) presets() []dataset.SynthConfig {
	return dataset.Presets(r.Scale.DataScale, r.Seed)
}

// presetByName resolves one preset configuration.
func (r *Runner) presetByName(name string) (dataset.SynthConfig, error) {
	for _, cfg := range r.presets() {
		if cfg.Name == name {
			return cfg, nil
		}
	}
	return dataset.SynthConfig{}, fmt.Errorf("experiments: unknown dataset preset %q", name)
}

// Dataset synthesizes (and caches) a preset by name.
func (r *Runner) Dataset(name string) (*dataset.Dataset, error) {
	if d, ok := r.datasets[name]; ok {
		return d, nil
	}
	cfg, err := r.presetByName(name)
	if err != nil {
		return nil, err
	}
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		return nil, err
	}
	r.datasets[name] = d
	return d, nil
}

// stepFor returns the paper's step size for a preset: λ=0.5 everywhere
// except the URL analog's λ=0.05 (Figure 3/4 captions).
func stepFor(name string) float64 {
	if name == "urls" {
		return 0.05
	}
	return 0.5
}

// epochsFor returns the per-preset epoch budget at the runner's scale
// (the paper runs 15 epochs on News20, ~18 on URL, 72 on the KDD sets).
func (r *Runner) epochsFor(name string) int {
	switch name {
	case "news20s", "urls":
		return r.Scale.EpochsA
	default:
		return r.Scale.EpochsB
	}
}

func (r *Runner) printf(format string, args ...any) {
	if r.Out != nil {
		fmt.Fprintf(r.Out, format, args...)
	}
}

func (r *Runner) section(title string) {
	r.printf("\n=== %s ===\n\n", title)
}

// table prints rows under a header as a fixed-width text table,
// followed by a blank line.
func (r *Runner) table(header []string, rows [][]string) {
	widths := make([]int, len(header))
	for _, row := range append([][]string{header}, rows...) {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	r.printf("%s\n", b.String())
}

// widest is the scale's largest concurrency level P: the ablations and
// the ψ sweep run P workers at τ = P − 1.
func (r *Runner) widest() int {
	return r.Scale.Threads[len(r.Scale.Threads)-1]
}

// delayedEvalWorkers is the evaluation's worker count on the delayed
// executor's curves. It is fixed, not GOMAXPROCS, because it sets the
// order the loss sum is added in, and the reports built on those curves
// are to repeat bit for bit on any machine.
const delayedEvalWorkers = 4

// delayedCurve runs epochs of e on the delayed executor at delay tau
// and records the model's evaluation before the first epoch and after
// each one: the iterative axis of a convergence curve (Wall stays 0).
func delayedCurve(ctx context.Context, d *dataset.Dataset, obj objective.Objective, e *core.Engine,
	epochs int, step float64, tau int) (metrics.Curve, error) {
	rec := metrics.NewRecorder()
	w := e.Snapshot(nil)
	rec.Add(0, 0, 0, metrics.Evaluate(d, obj, w, delayedEvalWorkers))
	var iters int64
	for epoch := 1; epoch <= epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		iters += e.RunEpochDelayed(step, tau)
		w = e.Snapshot(w)
		rec.Add(epoch, iters, 0, metrics.Evaluate(d, obj, w, delayedEvalWorkers))
	}
	return rec.Curve(), nil
}
