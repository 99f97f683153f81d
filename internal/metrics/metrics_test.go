package metrics

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/sparse"
)

func evalDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	rows := []sparse.Vector{
		{Idx: []int32{0}, Val: []float64{1}},
		{Idx: []int32{1}, Val: []float64{1}},
		{Idx: []int32{0, 1}, Val: []float64{1, 1}},
		{Idx: []int32{2}, Val: []float64{1}},
	}
	d, err := dataset.FromRows("eval", 3, rows, []float64{1, -1, 1, -1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEvaluateHandComputed(t *testing.T) {
	d := evalDataset(t)
	obj := objective.LeastSquaresL2{Eta: 0}
	w := []float64{1, -1, 0}
	// scores: 1, -1, 0, 0 → losses ½(z−y)²: 0, 0, ½, ½
	// predictions (sign, 0→+1): +1, −1, +1, +1 → errors: row 3 only.
	e := Evaluate(d, obj, w, 1)
	if math.Abs(e.Obj-0.25) > 1e-12 {
		t.Fatalf("Obj = %g, want 0.25", e.Obj)
	}
	wantRMSE := math.Sqrt((0 + 0 + 0.25 + 0.25) / 4)
	if math.Abs(e.RMSE-wantRMSE) > 1e-12 {
		t.Fatalf("RMSE = %g, want %g", e.RMSE, wantRMSE)
	}
	if math.Abs(e.ErrRate-0.25) > 1e-12 {
		t.Fatalf("ErrRate = %g, want 0.25", e.ErrRate)
	}
}

func TestEvaluateParallelMatchesSequential(t *testing.T) {
	d, err := dataset.Synthesize(dataset.Small(9))
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-3}
	w := make([]float64, d.Dim())
	for j := range w {
		w[j] = math.Sin(float64(j))
	}
	seq := Evaluate(d, obj, w, 1)
	for _, workers := range []int{2, 3, 8, 999999} {
		par := Evaluate(d, obj, w, workers)
		if math.Abs(par.Obj-seq.Obj) > 1e-9 ||
			math.Abs(par.RMSE-seq.RMSE) > 1e-9 ||
			par.ErrRate != seq.ErrRate {
			t.Fatalf("workers=%d: %+v != %+v", workers, par, seq)
		}
	}
}

func TestEvaluateIncludesPenalty(t *testing.T) {
	d := evalDataset(t)
	obj := objective.LogisticL1{Eta: 1}
	w := []float64{2, 0, -3}
	e := Evaluate(d, obj, w, 1)
	noReg := Evaluate(d, objective.LogisticL1{Eta: 0}, w, 1)
	if math.Abs((e.Obj-noReg.Obj)-5) > 1e-12 { // η‖w‖₁ = 5
		t.Fatalf("penalty contribution = %g, want 5", e.Obj-noReg.Obj)
	}
}

func TestEvaluateEmptyDataset(t *testing.T) {
	d := &dataset.Dataset{Name: "empty", X: sparse.NewCSRBuilder(3).Build()}
	e := Evaluate(d, objective.LogisticL1{}, []float64{0, 0, 0}, 4)
	if e.Obj != 0 || e.RMSE != 0 || e.ErrRate != 0 {
		t.Fatalf("empty eval = %+v", e)
	}
}

func TestRecorderBestErr(t *testing.T) {
	r := NewRecorder()
	r.Add(0, 0, 0, Eval{ErrRate: 0.5})
	r.Add(1, 100, time.Second, Eval{ErrRate: 0.2})
	r.Add(2, 200, 2*time.Second, Eval{ErrRate: 0.3}) // worse; BestErr stays
	c := r.Curve()
	if len(c) != 3 {
		t.Fatalf("len = %d", len(c))
	}
	if c[0].BestErr != 0.5 || c[1].BestErr != 0.2 || c[2].BestErr != 0.2 {
		t.Fatalf("BestErr sequence = %v %v %v", c[0].BestErr, c[1].BestErr, c[2].BestErr)
	}
	if c.Final().Epoch != 2 {
		t.Fatal("Final wrong point")
	}
	if c.BestErrRate() != 0.2 {
		t.Fatalf("BestErrRate = %g", c.BestErrRate())
	}
}

func TestCurveEmpty(t *testing.T) {
	var c Curve
	if c.Final() != (Point{}) {
		t.Fatal("empty Final")
	}
	if c.BestErrRate() != 1 {
		t.Fatal("empty BestErrRate")
	}
}

func TestStopwatchPauses(t *testing.T) {
	var sw Stopwatch
	sw.Start()
	time.Sleep(10 * time.Millisecond)
	sw.Pause()
	frozen := sw.Elapsed()
	if frozen < 5*time.Millisecond {
		t.Fatalf("elapsed %v too small", frozen)
	}
	time.Sleep(20 * time.Millisecond)
	if sw.Elapsed() != frozen {
		t.Fatal("stopwatch advanced while paused")
	}
	sw.Start()
	time.Sleep(5 * time.Millisecond)
	if sw.Elapsed() <= frozen {
		t.Fatal("stopwatch did not resume")
	}
	sw.Pause()
	sw.Pause() // double pause is a no-op
}

func mkCurve(pts ...[3]float64) Curve {
	// each point: {wallSeconds, errRate, epoch}
	var c Curve
	best := math.Inf(1)
	for _, p := range pts {
		if p[1] < best {
			best = p[1]
		}
		c = append(c, Point{
			Epoch:   int(p[2]),
			Wall:    time.Duration(p[0] * float64(time.Second)),
			ErrRate: p[1],
			BestErr: best,
		})
	}
	return c
}

func TestTimeToReach(t *testing.T) {
	c := mkCurve(
		[3]float64{0, 0.5, 0},
		[3]float64{10, 0.3, 1},
		[3]float64{20, 0.1, 2},
	)
	// Exact hits.
	if s, ok := TimeToReach(c, 0.5); !ok || s != 0 {
		t.Fatalf("target 0.5: %g %v", s, ok)
	}
	if s, ok := TimeToReach(c, 0.1); !ok || math.Abs(s-20) > 1e-9 {
		t.Fatalf("target 0.1: %g %v", s, ok)
	}
	// Interpolated: 0.2 lies halfway between 0.3@10s and 0.1@20s → 15s.
	if s, ok := TimeToReach(c, 0.2); !ok || math.Abs(s-15) > 1e-9 {
		t.Fatalf("target 0.2: %g %v", s, ok)
	}
	// Unreachable.
	if _, ok := TimeToReach(c, 0.05); ok {
		t.Fatal("unreachable target reported reachable")
	}
}

func TestEpochsToReach(t *testing.T) {
	c := mkCurve(
		[3]float64{0, 0.4, 0},
		[3]float64{1, 0.2, 1},
		[3]float64{2, 0.0, 2},
	)
	if e, ok := EpochsToReach(c, 0.1); !ok || math.Abs(e-1.5) > 1e-9 {
		t.Fatalf("EpochsToReach = %g %v", e, ok)
	}
}

func TestTimeToReachPlateau(t *testing.T) {
	// A flat stretch (span == 0) must not divide by zero.
	c := mkCurve(
		[3]float64{0, 0.5, 0},
		[3]float64{5, 0.5, 1},
		[3]float64{10, 0.2, 2},
	)
	if s, ok := TimeToReach(c, 0.5); !ok || s != 0 {
		t.Fatalf("plateau start: %g %v", s, ok)
	}
}

func TestSpeedupGrid(t *testing.T) {
	slow := mkCurve([3]float64{0, 0.5, 0}, [3]float64{20, 0.1, 1})
	fast := mkCurve([3]float64{0, 0.5, 0}, [3]float64{10, 0.1, 1})
	grid := SpeedupGrid(slow, fast, []float64{0.3, 0.2, 0.1})
	if len(grid) != 3 {
		t.Fatalf("grid size = %d", len(grid))
	}
	for _, g := range grid {
		if math.Abs(g.Speedup-2) > 1e-9 {
			t.Fatalf("speedup at %g = %g, want 2", g.Err, g.Speedup)
		}
	}
	if MeanSpeedup(grid) != 2 {
		t.Fatalf("mean speedup = %g", MeanSpeedup(grid))
	}
	if MeanSpeedup(nil) != 0 {
		t.Fatal("MeanSpeedup(nil) != 0")
	}
}

func TestSpeedupGridSkipsUnreachable(t *testing.T) {
	slow := mkCurve([3]float64{0, 0.5, 0}, [3]float64{20, 0.3, 1})
	fast := mkCurve([3]float64{0, 0.5, 0}, [3]float64{10, 0.1, 1})
	grid := SpeedupGrid(slow, fast, []float64{0.4, 0.2})
	if len(grid) != 1 || grid[0].Err != 0.4 {
		t.Fatalf("grid = %+v", grid)
	}
}

func TestErrLevels(t *testing.T) {
	a := mkCurve([3]float64{0, 0.5, 0}, [3]float64{10, 0.1, 1})
	b := mkCurve([3]float64{0, 0.4, 0}, [3]float64{10, 0.2, 1})
	levels := ErrLevels(a, b, 5)
	if len(levels) != 5 {
		t.Fatalf("levels = %v", levels)
	}
	for i, lv := range levels {
		if lv >= 0.4 || lv <= 0.2 {
			t.Fatalf("level %g outside (0.2, 0.4)", lv)
		}
		if i > 0 && levels[i] >= levels[i-1] {
			t.Fatal("levels not descending")
		}
	}
	if got := ErrLevels(nil, b, 5); got != nil {
		t.Fatal("nil curve should yield nil levels")
	}
}

func TestFormatPoint(t *testing.T) {
	s := FormatPoint(Point{Epoch: 3, Iters: 1000, Wall: time.Second, Obj: 0.5, RMSE: 0.6, ErrRate: 0.1, BestErr: 0.05})
	for _, want := range []string{"3", "1000", "obj=", "rmse=", "best="} {
		if !strings.Contains(s, want) {
			t.Fatalf("FormatPoint output %q missing %q", s, want)
		}
	}
}

// TestEvalSplitsObjective pins Obj = Loss + Reg, Reg the full penalty.
func TestEvalSplitsObjective(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(3))
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-2}
	w := make([]float64, ds.Dim())
	for j := range w {
		w[j] = float64(j%7) - 3
	}
	ev := Evaluate(ds, obj, w, 2)
	if reg := obj.Reg().Penalty(w); ev.Reg != reg || ev.Reg <= 0 {
		t.Fatalf("Reg %g, want the penalty %g", ev.Reg, reg)
	}
	if ev.Obj != ev.Loss+ev.Reg {
		t.Fatalf("Obj %g != Loss %g + Reg %g", ev.Obj, ev.Loss, ev.Reg)
	}
}
