package isasgd_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	isasgd "github.com/isasgd/isasgd"
)

// TestPublicAPIQuickstart exercises the documented quick-start flow end
// to end through the public facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	ds, err := isasgd.Synthesize(isasgd.SmallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	obj := isasgd.LogisticL1(1e-4)
	res, err := isasgd.Train(context.Background(), ds, obj, isasgd.Config{
		Algo:    isasgd.ISASGD,
		Epochs:  6,
		Step:    0.5,
		Threads: 4,
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve.Final().Obj >= res.Curve[0].Obj*0.8 {
		t.Fatalf("quickstart failed to optimize: %g -> %g",
			res.Curve[0].Obj, res.Curve.Final().Obj)
	}
	ev := isasgd.Evaluate(ds, obj, res.Weights, 0)
	if ev.ErrRate > 0.25 {
		t.Fatalf("error rate %g too high", ev.ErrRate)
	}
}

func TestPublicAPIAllAlgos(t *testing.T) {
	ds, err := isasgd.Synthesize(isasgd.SmallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	obj := isasgd.LogisticL1(1e-4)
	for _, algo := range []isasgd.Algo{
		isasgd.SGD, isasgd.ISSGD, isasgd.ASGD, isasgd.ISASGD,
		isasgd.SVRGSGD, isasgd.SVRGASGD,
	} {
		res, err := isasgd.Train(context.Background(), ds, obj, isasgd.Config{
			Algo: algo, Epochs: 3, Step: 0.4, Threads: 2, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(res.Weights) != ds.Dim() {
			t.Fatalf("%v: weights shape", algo)
		}
	}
}

func TestPublicAPIStatsAndWeights(t *testing.T) {
	ds, err := isasgd.Synthesize(isasgd.News20Like(0.02, 3))
	if err != nil {
		t.Fatal(err)
	}
	l := isasgd.Weights(ds, isasgd.LogisticL1(1e-4))
	if len(l) != ds.N() {
		t.Fatal("weights length")
	}
	s := isasgd.ComputeStats(ds, l)
	if s.Psi <= 0 || s.Psi > 1 || s.Rho <= 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestPublicAPILibSVMRoundTrip(t *testing.T) {
	ds, err := isasgd.Synthesize(isasgd.SmallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := isasgd.SaveLibSVM(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := isasgd.LoadLibSVM(strings.NewReader(buf.String()), "round", ds.Dim())
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() || back.Dim() != ds.Dim() {
		t.Fatal("round-trip shape mismatch")
	}
}

func TestPublicAPIConflictDegree(t *testing.T) {
	ds, err := isasgd.Synthesize(isasgd.SmallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	d1 := isasgd.ConflictDegree(ds, 50_000, 9)
	d2 := isasgd.ConflictDegree(ds, 50_000, 9)
	if d1 != d2 {
		t.Fatal("ConflictDegree not deterministic under fixed seed")
	}
	if d1 < 0 || d1 > float64(ds.N()) {
		t.Fatalf("Δ̄ = %g out of range", d1)
	}
}

func TestPublicAPIParseAlgo(t *testing.T) {
	a, err := isasgd.ParseAlgo("is-asgd")
	if err != nil || a != isasgd.ISASGD {
		t.Fatal("ParseAlgo")
	}
}

func TestPublicAPIExperimentRunner(t *testing.T) {
	var buf bytes.Buffer
	r, err := isasgd.NewExperimentRunner(&buf, "quick", 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fig2(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Fatal("runner output missing")
	}
	if _, err := isasgd.NewExperimentRunner(&buf, "bogus", 7); err == nil {
		t.Fatal("bogus scale accepted")
	}
}

func TestPublicAPITheoryParams(t *testing.T) {
	p := isasgd.TheoryParams{
		N: 1000, DeltaBar: 10, Mu: 0.01, MeanL: 1, InfL: 0.5, SupL: 2,
		Sigma2: 0.05, Eps: 0.01, Eps0: 1,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.TauBound() <= 0 || p.IterationBound() <= 0 {
		t.Fatal("bounds not computed")
	}
}
