// Package metrics implements the paper's two evaluation metrics (Section
// 4 "Metrics"), convergence-curve recording (each point carries its
// epoch, update count and training wall-clock), and the epochs-to-error
// interpolation that produces the Figure-5 speedup slices.
//
// RMSE: the paper defines it as "objective value as the error"; we
// compute sqrt(mean_i loss_i(w)²) over the per-sample losses and also
// record the plain objective F(w) (mean loss + penalty) on every point so
// either reading is available.
//
// Error rate: misclassification fraction; like the paper, the reported
// value is "updated once a better result is obtained", i.e. best-so-far
// monotone (the BestErr field).
package metrics

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/objective"
)

// Eval is a full-dataset evaluation of a model. Obj = Loss + Reg is the
// stated objective F(w); the sparse kernels minimize Loss plus the
// regularizer on each sample's support only (see package objective), so
// Loss is the term training drives down.
type Eval struct {
	Obj     float64 // F(w) = Loss + Reg
	Loss    float64 // mean data loss
	Reg     float64 // η·r(w), the full penalty (η‖w‖₁ for logistic-l1)
	RMSE    float64 // sqrt(mean loss²)
	ErrRate float64 // misclassification fraction
}

// Evaluate computes Eval over the whole dataset with the given number of
// parallel workers (<=0 means GOMAXPROCS). It never mutates w.
func Evaluate(d *dataset.Dataset, obj objective.Objective, w []float64, workers int) Eval {
	n := d.N()
	if n == 0 {
		return Eval{}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	type part struct {
		loss, lossSq float64
		errs         int
	}
	parts := make([]part, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for p := 0; p < workers; p++ {
		lo := p * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			var pt part
			for i := lo; i < hi; i++ {
				row := d.X.Row(i)
				z := row.Dot(w)
				l := obj.Loss(z, d.Y[i])
				pt.loss += l
				pt.lossSq += l * l
				if obj.Predict(z) != d.Y[i] {
					pt.errs++
				}
			}
			parts[p] = pt
		}(p, lo, hi)
	}
	wg.Wait()
	var total part
	for _, pt := range parts {
		total.loss += pt.loss
		total.lossSq += pt.lossSq
		total.errs += pt.errs
	}
	fn := float64(n)
	loss, reg := total.loss/fn, obj.Reg().Penalty(w)
	return Eval{
		Obj:     loss + reg,
		Loss:    loss,
		Reg:     reg,
		RMSE:    math.Sqrt(total.lossSq / fn),
		ErrRate: float64(total.errs) / fn,
	}
}

// Point is one record on a convergence curve.
type Point struct {
	Epoch   int           // completed epochs (0 = initial model)
	Iters   int64         // cumulative update count
	Wall    time.Duration // cumulative training time, evaluation excluded
	Obj     float64
	Loss    float64
	RMSE    float64
	ErrRate float64
	BestErr float64 // best-so-far error rate (the paper's reported metric)
}

// Curve is a convergence curve ordered by epoch (and hence by wall time).
type Curve []Point

// Final returns the last point; the zero Point if the curve is empty.
func (c Curve) Final() Point {
	if len(c) == 0 {
		return Point{}
	}
	return c[len(c)-1]
}

// BestErrRate returns the minimum error rate on the curve (1 if empty).
// The minimum is taken over the actual points — mirroring the Recorder's
// BestErr bookkeeping — so a curve whose error rates all exceed 1 (e.g.
// unnormalized losses recorded as rates) still reports a value some
// point attains, keeping EpochsToReach(c, c.BestErrRate()) reachable.
func (c Curve) BestErrRate() float64 {
	if len(c) == 0 {
		return 1
	}
	best := c[0].ErrRate
	for _, p := range c[1:] {
		if p.ErrRate < best {
			best = p.ErrRate
		}
	}
	return best
}

// Recorder accumulates curve points and maintains the best-so-far error.
type Recorder struct {
	points  Curve
	bestErr float64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{bestErr: math.Inf(1)} }

// Add appends a point, stamping BestErr.
func (r *Recorder) Add(epoch int, iters int64, wall time.Duration, e Eval) {
	if e.ErrRate < r.bestErr {
		r.bestErr = e.ErrRate
	}
	r.points = append(r.points, Point{
		Epoch: epoch, Iters: iters, Wall: wall,
		Obj: e.Obj, Loss: e.Loss, RMSE: e.RMSE, ErrRate: e.ErrRate, BestErr: r.bestErr,
	})
}

// Curve returns the recorded curve.
func (r *Recorder) Curve() Curve { return r.points }

// Stopwatch measures training wall-clock while excluding evaluation:
// solvers Pause() around each evaluation pass, matching how the paper's
// absolute-convergence axis counts only optimization time.
type Stopwatch struct {
	acc     time.Duration
	started time.Time
	running bool
}

// Start begins (or restarts) timing from now.
func (s *Stopwatch) Start() {
	s.started = time.Now()
	s.running = true
}

// Pause stops accumulating; Elapsed is frozen until Start is called.
func (s *Stopwatch) Pause() {
	if s.running {
		s.acc += time.Since(s.started)
		s.running = false
	}
}

// Elapsed returns total accumulated running time.
func (s *Stopwatch) Elapsed() time.Duration {
	if s.running {
		return s.acc + time.Since(s.started)
	}
	return s.acc
}

// EpochsToReach returns the earliest (fractional) epoch at which the
// curve's BestErr falls to target or below, linearly interpolating
// between the bracketing points (the paper's Figure-5 protocol: "values
// are linearly interpolated when needed"). ok is false if the curve
// never reaches the target.
func EpochsToReach(c Curve, target float64) (epochs float64, ok bool) {
	for i, p := range c {
		if p.BestErr <= target {
			if i == 0 {
				return float64(p.Epoch), true
			}
			prev := c[i-1]
			span := prev.BestErr - p.BestErr
			if span <= 0 {
				return float64(p.Epoch), true
			}
			frac := (prev.BestErr - target) / span
			return float64(prev.Epoch) + frac*float64(p.Epoch-prev.Epoch), true
		}
	}
	return 0, false
}

// SpeedupPoint is one slice of Figure 5: at error level Err, the slow
// curve took SlowEpochs and the fast one FastEpochs, for a speedup
// ratio.
type SpeedupPoint struct {
	Err        float64
	SlowEpochs float64
	FastEpochs float64
	Speedup    float64
}

// SpeedupGrid computes fast-vs-slow speedups in epochs (EpochsToReach)
// at each error level both curves reach. Levels unreachable by either
// curve, or reached by the fast one at epoch 0, are skipped.
func SpeedupGrid(slow, fast Curve, levels []float64) []SpeedupPoint {
	var out []SpeedupPoint
	for _, lv := range levels {
		es, okS := EpochsToReach(slow, lv)
		ef, okF := EpochsToReach(fast, lv)
		if !okS || !okF || ef <= 0 {
			continue
		}
		out = append(out, SpeedupPoint{Err: lv, SlowEpochs: es, FastEpochs: ef, Speedup: es / ef})
	}
	return out
}

// ErrLevels builds a grid of k error levels spanning what both curves
// reach: from just under the worse initial error down to the better of
// the two optima, evenly spaced. Used as the Figure-5 x-axis.
func ErrLevels(a, b Curve, k int) []float64 {
	if len(a) == 0 || len(b) == 0 || k < 1 {
		return nil
	}
	hi := math.Min(a[0].BestErr, b[0].BestErr)
	lo := math.Max(a.BestErrRate(), b.BestErrRate())
	if !(hi > lo) {
		return []float64{lo}
	}
	levels := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		f := float64(i+1) / float64(k+1)
		levels = append(levels, hi-f*(hi-lo))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(levels)))
	return levels
}

// MeanSpeedup averages the speedup column of a grid (0 if empty).
func MeanSpeedup(grid []SpeedupPoint) float64 {
	if len(grid) == 0 {
		return 0
	}
	s := 0.0
	for _, g := range grid {
		s += g.Speedup
	}
	return s / float64(len(grid))
}

// FormatPoint renders one curve point as a fixed-width table row.
func FormatPoint(p Point) string {
	return fmt.Sprintf("%6d %12d %10.3fs  obj=%-10.6f rmse=%-10.6f err=%-8.5f best=%-8.5f",
		p.Epoch, p.Iters, p.Wall.Seconds(), p.Obj, p.RMSE, p.ErrRate, p.BestErr)
}
