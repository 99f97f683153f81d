package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/isasgd/isasgd/internal/xrand"
)

// randomCurve builds a well-formed curve: monotone epochs with random
// gaps, monotone BestErr, arbitrary ErrRate wiggle.
func randomCurve(r *xrand.Rand, n int) Curve {
	rec := NewRecorder()
	epoch := 0
	err := 0.2 + 0.8*r.Float64()
	for i := 0; i < n; i++ {
		epoch += 1 + r.Intn(5)
		err = math.Max(0, err+0.1*(r.Float64()-0.7)) // drifts down, can wiggle up
		rec.Add(epoch, int64(epoch*100), 0, Eval{ErrRate: err, Obj: err, RMSE: err})
	}
	return rec.Curve()
}

func TestEpochsToReachMonotoneProperty(t *testing.T) {
	// Property: for a fixed curve, a tighter target never takes fewer
	// epochs: target1 >= target2 implies epochs(target1) <=
	// epochs(target2) whenever both are reachable.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		c := randomCurve(r, 2+r.Intn(30))
		lo := c.BestErrRate()
		hi := c[0].BestErr
		if !(hi > lo) {
			return true
		}
		t1 := lo + (hi-lo)*r.Float64()
		t2 := lo + (hi-lo)*r.Float64()
		if t1 < t2 {
			t1, t2 = t2, t1
		}
		s1, ok1 := EpochsToReach(c, t1)
		s2, ok2 := EpochsToReach(c, t2)
		if !ok1 || !ok2 {
			return !ok2 || !ok1 // reaching the looser target is implied by the tighter
		}
		return s1 <= s2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestEpochsToReachWithinCurveSpanProperty(t *testing.T) {
	// Property: any reachable target is reached within the curve's epoch
	// span.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		c := randomCurve(r, 2+r.Intn(30))
		target := c.BestErrRate()
		e, ok := EpochsToReach(c, target)
		if !ok {
			return false // its own best is always reachable
		}
		return e >= float64(c[0].Epoch) && e <= float64(c.Final().Epoch)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestBestErrMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		c := randomCurve(r, 1+r.Intn(40))
		for i := 1; i < len(c); i++ {
			if c[i].BestErr > c[i-1].BestErr {
				return false
			}
			if c[i].BestErr > c[i].ErrRate+1e-12 && c[i].BestErr != c[i-1].BestErr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupGridSymmetryProperty(t *testing.T) {
	// Property: swapping slow and fast inverts the speedup at each level.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		a := randomCurve(r, 3+r.Intn(20))
		b := randomCurve(r, 3+r.Intn(20))
		levels := ErrLevels(a, b, 6)
		fwd := SpeedupGrid(a, b, levels)
		rev := SpeedupGrid(b, a, levels)
		if len(fwd) != len(rev) {
			return false
		}
		for i := range fwd {
			if fwd[i].FastEpochs <= 0 || rev[i].FastEpochs <= 0 {
				continue
			}
			prod := fwd[i].Speedup * rev[i].Speedup
			if math.Abs(prod-1) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
