package experiments

import (
	"context"
	"fmt"

	"github.com/isasgd/isasgd/internal/conflict"
	"github.com/isasgd/isasgd/internal/core"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/plot"
	"github.com/isasgd/isasgd/internal/xrand"
)

// TauRow is one delay level of the sweep.
type TauRow struct {
	Tau        int
	FinalObj   float64
	FinalErr   float64
	InEq27     bool
	Importance bool
}

// TauSweepResult is the Section-3 delay study.
type TauSweepResult struct {
	TauBound float64
	Rows     []TauRow
}

// TauSweep measures convergence as an exact function of the delay τ:
// each row is a 1-worker SGD or IS-SGD engine run on the delayed
// executor (core.Engine.RunEpochDelayed), the real update loop with
// every gradient read τ writes before it is applied — the quantity real
// Hogwild runs only realize implicitly through thread count. Physical
// machines cap τ near the core count; the executor extends the axis by
// orders of magnitude, exposing where the asynchrony noise term δ of
// Eq. 25 stops being an order-wise constant, to compare against the
// Eq.-27 bound. The delay holds from the τ-th update of an epoch on (the
// epoch barrier drains the pending writes), so a τ at or past the
// epoch's n updates reads every gradient of an epoch at its start. The
// runs are sequential, so the table repeats bit for bit at a seed.
func (r *Runner) TauSweep(ctx context.Context) (*TauSweepResult, error) {
	r.section("τ sweep: convergence vs exact staleness (Sec. 3, Eq. 27)")
	cfg := dataset.News20Like(r.Scale.DataScale*0.5, r.Seed+50)
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		return nil, err
	}
	obj := r.Objective()
	l := objective.Weights(d.X, obj)
	st := dataset.ComputeStats(d, l)

	// Eq.-27 bound with the documented proxies (µ = η, σ² at w₀ = 0).
	sigma2 := 0.0
	for i := 0; i < d.N(); i++ {
		sigma2 += d.X.Row(i).NormSq()
	}
	sigma2 /= 4 * float64(d.N())
	params := conflict.Params{
		N:        d.N(),
		DeltaBar: conflict.AverageDegreeMC(d, 100_000, xrand.New(r.Seed+51)),
		Mu:       r.eta(), MeanL: st.MeanL, InfL: st.MinL, SupL: st.MaxL,
		Sigma2: sigma2, Eps: 0.01, Eps0: 1,
	}
	res := &TauSweepResult{TauBound: params.TauBound()}

	epochs := r.Scale.EpochsA
	var rows [][]string
	for _, importance := range []bool{false, true} {
		for _, tau := range []int{0, 4, 16, 64, 256, 1024, d.N() / 2} {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			m := model.NewRacy(d.Dim())
			var e *core.Engine
			if importance {
				e, err = core.NewISSGD(d, obj, m, r.Seed+52, false)
			} else {
				e, err = core.NewSGD(d, obj, m, r.Seed+52)
			}
			if err != nil {
				return nil, err
			}
			c, err := delayedCurve(ctx, d, obj, e, epochs, stepFor("news20s"), tau)
			if err != nil {
				return nil, err
			}
			ev := c.Final()
			row := TauRow{
				Tau: tau, FinalObj: ev.Obj, FinalErr: ev.ErrRate,
				InEq27: params.SpeedupRegion(tau), Importance: importance,
			}
			res.Rows = append(res.Rows, row)
			name := "uniform"
			if importance {
				name = "IS"
			}
			rows = append(rows, []string{
				name,
				fmt.Sprintf("%d", tau),
				fmt.Sprintf("%.5f", ev.Obj),
				fmt.Sprintf("%.5f", ev.ErrRate),
				boolWord(row.InEq27, "in", "out"),
			})
		}
	}
	r.printf("%s\n", plot.Table(
		[]string{"sampling", "τ (exact delay)", "final obj", "final err", "Eq.27 region"},
		rows,
	))
	r.printf("Eq.27 τ bound with µ=η, σ²@w₀ proxies: %.3g — the bound's n/Δ̄ term\n", res.TauBound)
	r.printf("is extremely conservative for Zipf-popular features (Δ̄ ≈ n), while\n")
	r.printf("measured degradation appears only at τ orders of magnitude larger.\n")
	return res, nil
}
