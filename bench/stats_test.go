package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileSelectsAMeasuredValue(t *testing.T) {
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	if got := percentile(lat, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(lat, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
	// A failed request sorts last as +Inf and so counts against any limit.
	lat[999] = math.Inf(1)
	if got := percentile(lat, 1); !math.IsInf(got, 1) {
		t.Errorf("p100 with a failed request = %g, want +Inf", got)
	}
}

// The spread of a metric is judged by Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 2, 8, 3, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %g %g %g, want 1 2 3", q1, q2, q3)
	}
	if s := summarize([]float64{10, 12, 11, 9, 13}); math.Abs(s.spread()-3.0/11) > 1e-12 {
		t.Errorf("spread = %g, want 3/11", s.spread())
	}
}

func TestCrossing(t *testing.T) {
	curve := []point{{0, 0, 0.5}, {1, 100, 0.3}, {2, 200, 0.3}, {3, 300, 0.2}, {4, 400, 0.1}}
	for _, c := range []struct {
		name       string
		curve      []point
		target     float64
		t, updates float64
		ok         bool
	}{
		{"between two evaluations", curve, 0.25, 2.5, 250, true},
		{"plateau above the target is walked through", curve, 0.29, 2.1, 210, true},
		{"exactly on an evaluation", curve, 0.3, 1, 100, true},
		{"never reached", curve, 0.05, 0, 0, false},
		{"reached at epoch 0", curve, 0.6, 0, 0, true},
		{"reached at epoch 0 keeps the construction time", []point{{0.04, 0, 0.1}}, 0.2, 0.04, 0, true},
		{"empty curve", nil, 0.2, 0, 0, false},
	} {
		gt, gu, ok := crossing(c.curve, c.target)
		if ok != c.ok || math.Abs(gt-c.t) > 1e-9 || math.Abs(gu-c.updates) > 1e-9 {
			t.Errorf("%s: crossing = (%g, %g, %v), want (%g, %g, %v)", c.name, gt, gu, ok, c.t, c.updates, c.ok)
		}
	}
}

func TestTimelineAssemblesTheFastestPieces(t *testing.T) {
	var tl timeline
	// construction, then three epochs of 100 updates; each rep is slowed
	// somewhere else.
	tl.offer([]float64{0.04, 0.10, 0.30, 0.10}, []float64{0, 100, 100, 100})
	tl.offer([]float64{0.09, 0.10, 0.10, 0.20}, []float64{0, 100, 100, 100})
	tl.offer([]float64{0.04, 0.25}, []float64{0, 100}) // a rep cut short still counts where it ran
	secs, updates := tl.total()
	if math.Abs(secs-0.34) > 1e-12 || updates != 300 || tl.reps != 3 {
		t.Errorf("total = %g s, %g updates over %d reps; want 0.34, 300, 3", secs, updates, tl.reps)
	}
	for _, c := range []struct{ u, want float64 }{
		{0, 0.04},    // nothing applied yet: construction is still paid
		{50, 0.09},   // halfway through the first epoch
		{100, 0.14},  // on an epoch boundary
		{250, 0.29},  // halfway through the last
		{300, 0.34},  // the whole budget
		{1000, 0.34}, // beyond it: the run's length
	} {
		if got := tl.at(c.u); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("at(%g) = %g, want %g", c.u, got, c.want)
		}
	}
}

func TestTimelinePoolsRepeatedPieces(t *testing.T) {
	var tl timeline
	tl.offer([]float64{0.05, 0.20, 0.12, 0.10, 0.06}, []float64{0, 100, 100, 100, 50})
	tl.pool(2)
	// The steady pieces all take the fastest per-update time among them
	// (0.10 s per 100); construction and the first epoch keep their own.
	secs, _ := tl.total()
	if want := 0.05 + 0.20 + 0.10 + 0.10 + 0.05; math.Abs(secs-want) > 1e-12 {
		t.Errorf("total after pool = %g, want %g", secs, want)
	}
}
