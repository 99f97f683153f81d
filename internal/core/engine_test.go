package core

import (
	"math"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/sparse"
)

func smallProblem(t *testing.T) (*dataset.Dataset, objective.Objective) {
	t.Helper()
	ds, err := dataset.Synthesize(dataset.Small(17))
	if err != nil {
		t.Fatal(err)
	}
	return ds, objective.LogisticL1{Eta: 1e-4}
}

func objValue(ds *dataset.Dataset, obj objective.Objective, w []float64) float64 {
	return metrics.Evaluate(ds, obj, w, 1).Obj
}

// maxAbsDiff returns max_j |a_j − b_j| for equal-length vectors.
func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for j := range a {
		m = max(m, math.Abs(a[j]-b[j]))
	}
	return m
}

func TestNewEngineValidation(t *testing.T) {
	ds, obj := smallProblem(t)
	if _, err := NewASGD(ds, obj, model.NewRacy(ds.Dim()+1), 2, 1); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := NewASGD(ds, obj, model.NewRacy(ds.Dim()), 0, 1); err == nil {
		t.Fatal("zero threads accepted")
	}
	empty := &dataset.Dataset{Name: "empty", X: sparse.NewCSRBuilder(4).Build()}
	if _, err := NewASGD(empty, obj, model.NewRacy(4), 1, 1); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestThreadsClampedToN(t *testing.T) {
	rows := []sparse.Vector{
		{Idx: []int32{0}, Val: []float64{1}},
		{Idx: []int32{1}, Val: []float64{1}},
	}
	ds, err := dataset.FromRows("two", 2, rows, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewASGD(ds, objective.LogisticL1{}, model.NewAtomic(2), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Threads() != 2 {
		t.Fatalf("threads = %d, want clamp to 2", e.Threads())
	}
}

func TestSGDReducesObjective(t *testing.T) {
	ds, obj := smallProblem(t)
	e, err := NewSGD(ds, obj, model.NewRacy(ds.Dim()), 7)
	if err != nil {
		t.Fatal(err)
	}
	w0 := e.Snapshot(nil)
	before := objValue(ds, obj, w0)
	for ep := 0; ep < 5; ep++ {
		e.RunEpoch(0.5)
	}
	after := objValue(ds, obj, e.Snapshot(nil))
	if after >= before*0.8 {
		t.Fatalf("SGD failed to optimize: %g -> %g", before, after)
	}
}

func TestISSGDReducesObjectiveAndScalesSteps(t *testing.T) {
	ds, obj := smallProblem(t)
	e, err := NewISSGD(ds, obj, model.NewRacy(ds.Dim()), 7, false)
	if err != nil {
		t.Fatal(err)
	}
	// IS engine must carry scales and sequences.
	if e.scales == nil || e.seqs == nil {
		t.Fatal("IS-SGD engine missing scale/sequence tables")
	}
	// Unbiasedness identity: E[scale] over the sampling distribution is 1
	// per sample position: Σ_k p_k · 1/(n·p_k) = 1.
	al := e.samplers[0]
	sum := 0.0
	type prober interface{ Prob(int) float64 }
	pr := al.(prober)
	for k := 0; k < al.N(); k++ {
		sum += pr.Prob(k) * e.scales[0][k]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Σ p·(1/np) = %g, want 1", sum)
	}
	before := objValue(ds, obj, e.Snapshot(nil))
	for ep := 0; ep < 5; ep++ {
		e.RunEpoch(0.5)
	}
	after := objValue(ds, obj, e.Snapshot(nil))
	if after >= before*0.8 {
		t.Fatalf("IS-SGD failed to optimize: %g -> %g", before, after)
	}
}

func TestASGDConvergesConcurrently(t *testing.T) {
	ds, obj := smallProblem(t)
	e, err := NewASGD(ds, obj, model.NewAtomic(ds.Dim()), 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if e.Threads() != 8 {
		t.Fatalf("threads = %d", e.Threads())
	}
	before := objValue(ds, obj, e.Snapshot(nil))
	var iters int64
	for ep := 0; ep < 5; ep++ {
		iters += e.RunEpoch(0.5)
	}
	if iters != 5*int64(ds.N()) {
		t.Fatalf("iters = %d, want %d", iters, 5*ds.N())
	}
	after := objValue(ds, obj, e.Snapshot(nil))
	if after >= before*0.8 {
		t.Fatalf("ASGD failed to optimize: %g -> %g", before, after)
	}
}

func TestISASGDConvergesAndReportsDecision(t *testing.T) {
	ds, obj := smallProblem(t)
	e, err := NewISASGD(ds, obj, model.NewAtomic(ds.Dim()), 8, balance.ForceShuffle, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	d := e.Decision()
	if d.Rho <= 0 || d.Psi <= 0 || d.Psi > 1 {
		t.Fatalf("decision not populated: %+v", d)
	}
	before := objValue(ds, obj, e.Snapshot(nil))
	for ep := 0; ep < 5; ep++ {
		e.RunEpoch(0.5)
	}
	after := objValue(ds, obj, e.Snapshot(nil))
	if after >= before*0.8 {
		t.Fatalf("IS-ASGD failed to optimize: %g -> %g", before, after)
	}
}

// TestISASGDDecisionDescribesItsShards: each mode is honored, and the
// decision's Φ statistics are those of the shards the workers train on.
func TestISASGDDecisionDescribesItsShards(t *testing.T) {
	ds, obj := smallProblem(t)
	l := objective.Weights(ds.X, obj)
	for _, mode := range []balance.Mode{balance.ForceBalance, balance.ForceShuffle} {
		e, err := NewISASGD(ds, obj, model.NewAtomic(ds.Dim()), 4, mode, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		d := e.Decision()
		if d.Balanced != (mode == balance.ForceBalance) {
			t.Fatalf("%v not honored: %+v", mode, d)
		}
		phis := balance.ImportanceSums(e.shards, l)
		if d.Imbalance != balance.Imbalance(phis) || d.Inflation != balance.Inflation(phis) {
			t.Fatalf("%v: decision %+v, shards have Φ %v", mode, d, phis)
		}
	}
}

func TestSequentialDeterminism(t *testing.T) {
	ds, obj := smallProblem(t)
	run := func() []float64 {
		e, err := NewISSGD(ds, obj, model.NewRacy(ds.Dim()), 99, false)
		if err != nil {
			t.Fatal(err)
		}
		for ep := 0; ep < 3; ep++ {
			e.RunEpoch(0.3)
		}
		return e.Snapshot(nil)
	}
	a, b := run(), run()
	if maxAbsDiff(a, b) != 0 {
		t.Fatal("sequential IS-SGD not deterministic under fixed seed")
	}
}

func TestRegenVsShuffleBothConverge(t *testing.T) {
	ds, obj := smallProblem(t)
	for _, shuffleSeq := range []bool{false, true} {
		e, err := NewISASGD(ds, obj, model.NewAtomic(ds.Dim()), 4, balance.ForceShuffle, 5, shuffleSeq)
		if err != nil {
			t.Fatal(err)
		}
		before := objValue(ds, obj, e.Snapshot(nil))
		for ep := 0; ep < 4; ep++ {
			e.RunEpoch(0.5)
		}
		after := objValue(ds, obj, e.Snapshot(nil))
		if after >= before*0.9 {
			t.Fatalf("shuffleSeq=%v failed to optimize: %g -> %g", shuffleSeq, before, after)
		}
	}
}

func TestItersPerEpoch(t *testing.T) {
	ds, obj := smallProblem(t)
	e, err := NewASGD(ds, obj, model.NewAtomic(ds.Dim()), 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.ItersPerEpoch() != int64(ds.N()) {
		t.Fatalf("ItersPerEpoch = %d, want %d", e.ItersPerEpoch(), ds.N())
	}
}
