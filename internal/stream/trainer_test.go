package stream

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/xrand"
)

// makeSkewedCorpus writes an n-row LibSVM corpus of dimensionality dim
// where only a (1−noiseFrac) fraction of rows carry signal: informative
// rows have 8 unit-scale features and labels from a fixed ground-truth
// separator (derived from truthSeed, so corpora sharing it are drawn
// from the same concept), noise rows have one tiny feature (norm 0.01)
// and a random label. The importance skew (L_i ratio ≈ 1e4) is what
// online IS exploits; uniform online SGD wastes noiseFrac of its draws.
func makeSkewedCorpus(n, dim int, noiseFrac float64, seed, truthSeed uint64) string {
	rng := xrand.New(seed)
	trng := xrand.New(truthSeed)
	truth := make([]float64, dim)
	for j := range truth {
		truth[j] = trng.NormFloat64()
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if rng.Float64() < noiseFrac {
			j := rng.Intn(dim)
			y := 1
			if rng.Float64() < 0.5 {
				y = -1
			}
			fmt.Fprintf(&sb, "%d %d:0.01\n", y, j+1)
			continue
		}
		const nnz = 8
		seen := map[int]bool{}
		idx := make([]int, 0, nnz)
		for len(idx) < nnz {
			j := rng.Intn(dim)
			if !seen[j] {
				seen[j] = true
				idx = append(idx, j)
			}
		}
		for k := 1; k < len(idx); k++ {
			for m := k; m > 0 && idx[m] < idx[m-1]; m-- {
				idx[m], idx[m-1] = idx[m-1], idx[m]
			}
		}
		z := 0.0
		vals := make([]float64, nnz)
		for k, j := range idx {
			vals[k] = rng.NormFloat64()
			z += vals[k] * truth[j]
		}
		y := 1
		if z < 0 {
			y = -1
		}
		fmt.Fprintf(&sb, "%d", y)
		for k, j := range idx {
			fmt.Fprintf(&sb, " %d:%.6f", j+1, vals[k])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func streamConfig(dim int, uniform bool) Config {
	return Config{
		Obj:          objective.LogisticL1{Eta: 1e-4},
		Dim:          dim,
		Workers:      2,
		Step:         0.5,
		WindowBlocks: 4,
		Uniform:      uniform,
		Seed:         42,
	}
}

// TestTrainerISBeatsUniformOnline is the end-to-end acceptance test: a
// ≥4-chunk synthetic corpus streamed through stream.Trainer with 2
// workers must reach lower logistic loss with online importance sampling
// than with uniform online SGD under the same update budget, under a
// fixed seed.
func TestTrainerISBeatsUniformOnline(t *testing.T) {
	const (
		n    = 2048
		dim  = 256
		bs   = 256 // 8 chunks
		seed = 9
	)
	const truthSeed = 77
	corpus := makeSkewedCorpus(n, dim, 0.9, seed, truthSeed)
	// Held-out evaluation set: fresh informative rows from the same
	// ground truth. Loss here measures what was actually learned, without
	// the irreducible random-label floor the noise rows contribute.
	heldOut := makeSkewedCorpus(512, dim, 0, seed+1, truthSeed)
	obj := objective.LogisticL1{Eta: 1e-4}

	run := func(uniform bool) (loss float64, res *Result) {
		cfg := streamConfig(dim, uniform)
		cfg.Step = 1.0
		cfg.UpdatesPerBlock = 2 * bs
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err = tr.Run(context.Background(), NewReader(strings.NewReader(corpus), "skew", bs))
		if err != nil {
			t.Fatal(err)
		}
		loss, _, _, _, err = Evaluate(strings.NewReader(heldOut), "held-out", bs, obj, res.Weights)
		if err != nil {
			t.Fatal(err)
		}
		return loss, res
	}

	isLoss, isRes := run(false)
	uLoss, uRes := run(true)

	if isRes.Blocks < 4 {
		t.Fatalf("corpus streamed in %d blocks, want >= 4", isRes.Blocks)
	}
	if isRes.Rows != n || uRes.Rows != n {
		t.Fatalf("rows: is=%d uniform=%d, want %d", isRes.Rows, uRes.Rows, n)
	}
	if isRes.Updates != uRes.Updates {
		t.Fatalf("budgets differ: is=%d uniform=%d", isRes.Updates, uRes.Updates)
	}
	t.Logf("loss: is=%.6f uniform=%.6f (%d updates)", isLoss, uLoss, isRes.Updates)
	if !(isLoss < uLoss) {
		t.Fatalf("online IS (%.6f) should beat uniform online SGD (%.6f)", isLoss, uLoss)
	}
	// The margin must be structural, not noise: require ≥5%% improvement.
	if isLoss > 0.95*uLoss {
		t.Fatalf("improvement too small to be meaningful: is=%.6f uniform=%.6f", isLoss, uLoss)
	}
}

func TestTrainerSingleWorkerDeterministic(t *testing.T) {
	corpus := makeSkewedCorpus(512, 32, 0.8, 3, 3)
	run := func() []float64 {
		cfg := streamConfig(32, false)
		cfg.Workers = 1
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run(context.Background(), NewReader(strings.NewReader(corpus), "det", 128))
		if err != nil {
			t.Fatal(err)
		}
		return res.Weights
	}
	a, b := run(), run()
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("weight %d differs across identical seeded runs: %g != %g", j, a[j], b[j])
		}
	}
}

func TestTrainerWindowBounded(t *testing.T) {
	corpus := makeSkewedCorpus(1024, 32, 0.5, 5, 5)
	cfg := streamConfig(32, false)
	cfg.WindowBlocks = 2
	cfg.Reservoir = 64
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(strings.NewReader(corpus), "win", 128)
	for {
		b, err := r.Next()
		if err != nil {
			break
		}
		st := tr.Ingest(b)
		if len(tr.win.blocks) > 2 {
			t.Fatalf("window holds %d blocks, cap 2", len(tr.win.blocks))
		}
		if st.WindowRows > 2*128 {
			t.Fatalf("window holds %d rows, cap %d", st.WindowRows, 2*128)
		}
		for w, s := range tr.sts {
			if s.Len() > 64 {
				t.Fatalf("worker %d reservoir %d > cap 64", w, s.Len())
			}
		}
	}
	if tr.Rows() != 1024 {
		t.Fatalf("Rows = %d, want 1024", tr.Rows())
	}
}

func TestTrainerOnBlockStats(t *testing.T) {
	corpus := makeSkewedCorpus(512, 32, 0.9, 11, 11)
	cfg := streamConfig(32, false)
	var stats []BlockStats
	cfg.OnBlock = func(s BlockStats) { stats = append(stats, s) }
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(context.Background(), NewReader(strings.NewReader(corpus), "cb", 128)); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("got %d callbacks, want 4", len(stats))
	}
	for i, s := range stats {
		if s.Block != int64(i) {
			t.Fatalf("callback %d has Block %d", i, s.Block)
		}
		if s.EstRho <= 0 || s.EstPsi <= 0 || s.EstPsi > 1 {
			t.Fatalf("callback %d has degenerate estimates: %+v", i, s)
		}
	}
	// The skewed corpus has enormous weight variance: every block must
	// have taken Algorithm 4's balance branch.
	for i, s := range stats {
		if !s.Balanced {
			t.Fatalf("block %d not balanced despite ρ=%g", i, s.EstRho)
		}
	}
	last := stats[len(stats)-1]
	if last.Updates != tr.Updates() || last.Updates == 0 {
		t.Fatalf("cumulative updates %d != trainer's %d", last.Updates, tr.Updates())
	}
}

func TestTrainerCoarseRebuildCadenceStillTrains(t *testing.T) {
	// A rebuild cadence far beyond the stream length must not leave the
	// workers without a sampling table: the first block bootstraps one,
	// so updates flow from block 0.
	corpus := makeSkewedCorpus(512, 32, 0.5, 21, 21)
	cfg := streamConfig(32, false)
	cfg.RebuildEvery = 1 << 20
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(context.Background(), NewReader(strings.NewReader(corpus), "coarse", 128))
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates == 0 {
		t.Fatal("coarse rebuild cadence trained zero updates")
	}
	// Even the first block must have applied its budget.
	if res.Updates < 128 {
		t.Fatalf("only %d updates over 4 blocks; bootstrap table missing", res.Updates)
	}
}

func TestTrainerCancellation(t *testing.T) {
	corpus := makeSkewedCorpus(512, 32, 0.5, 13, 13)
	tr, err := NewTrainer(streamConfig(32, false))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := tr.Run(ctx, NewReader(strings.NewReader(corpus), "cancel", 128))
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if res == nil || res.Blocks != 0 {
		t.Fatalf("cancelled-before-start run should report 0 blocks, got %+v", res)
	}
}

func TestTrainerConfigValidation(t *testing.T) {
	obj := objective.LogisticL1{Eta: 1e-4}
	cases := []Config{
		{Dim: 4, Step: 0.1},                         // missing Obj
		{Obj: obj, Step: 0.1},                       // missing Dim
		{Obj: obj, Dim: 4},                          // missing Step
		{Obj: obj, Dim: 4, Step: 0.1, StepDecay: 2}, // bad decay
		{Obj: obj, Dim: 4, Step: math.NaN()},        // NaN step
		{Obj: obj, Dim: 4, Step: math.Inf(1)},       // +Inf step
		{Obj: obj, Dim: 4, Step: 0.1, StepDecay: math.NaN()},
	}
	for i, cfg := range cases {
		if _, err := NewTrainer(cfg); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
}
