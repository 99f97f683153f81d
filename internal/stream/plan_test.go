package stream

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
)

// ingestAll feeds every block of corpus to tr by hand.
func ingestAll(t *testing.T, tr *Trainer, corpus string, bs int) {
	t.Helper()
	if _, err := handDriven(tr, NewReader(strings.NewReader(corpus), "plan", bs)); err != nil {
		t.Fatal(err)
	}
}

// TestPlanDropsEvictedDraws: with a rebuild cadence coarser than a
// block, the published table still names rows the window has evicted.
// Building a plan must draw exactly what drawing row by row draws, drop
// those stale draws and zero-scale ones, stop at the quota or at the
// attempt budget, and count every draw it made against the budget.
func TestPlanDropsEvictedDraws(t *testing.T) {
	const bs = 64
	cfg := streamConfig(32, false)
	cfg.Workers = 1
	cfg.WindowBlocks = 2
	cfg.Reservoir = 1 << 10
	// Block 0 bootstraps a table, block 2's last observation rebuilds
	// one over blocks 0–2; then block 0 is evicted.
	cfg.RebuildEvery = 3 * bs
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, tr, makeSkewedCorpus(3*bs, 32, 0.5, 3, 3), bs)
	if first := tr.win.first(); first != bs {
		t.Fatalf("window starts at ref %d, want %d", first, bs)
	}

	for _, tc := range []struct{ want, budget int }{
		{want: 40, budget: 160}, // the quota binds
		{want: 40, budget: 30},  // the budget binds
	} {
		// Replay the draws on a copy of the worker's generator.
		rng := *tr.rngs[0]
		var (
			rows   []int
			scales []float64
			drawn  int
			stale  int
		)
		for len(rows) < tc.want && drawn < tc.budget {
			drawn++
			e, scale, ok := tr.sts[0].Sample(&rng)
			if !ok {
				t.Fatal("nothing published")
			}
			if e.Ref < tr.win.first() || scale <= 0 {
				stale++
				continue
			}
			rows = append(rows, int(e.Ref-tr.win.base))
			scales = append(scales, scale)
		}
		if stale == 0 {
			t.Fatalf("want %d budget %d: no draw named an evicted row; the test lost its point", tc.want, tc.budget)
		}

		p := &tr.plans[0]
		tr.draw(0, tc.want, tc.budget)
		if p.drawn != drawn || len(p.rows) != len(rows) || len(p.seq) != len(rows) {
			t.Fatalf("want %d budget %d: plan drew %d and kept %d, row by row draws %d and keeps %d",
				tc.want, tc.budget, p.drawn, len(p.rows), drawn, len(rows))
		}
		for k := range rows {
			if p.rows[k] != rows[k] || p.scales[k] != scales[k] || int(p.seq[k]) != k {
				t.Fatalf("plan entry %d = (row %d, scale %g), want (row %d, scale %g)", k, p.rows[k], p.scales[k], rows[k], scales[k])
			}
			if ref := tr.win.base + int64(p.rows[k]); ref < tr.win.first() {
				t.Fatalf("plan entry %d names evicted ref %d", k, ref)
			}
		}
		if *tr.rngs[0] != rng {
			t.Fatal("the plan consumed a different number of draws from the generator")
		}
	}
}

// TestPlanAllStaleSpendsBudget: when every row the table names has been
// evicted, a worker makes 4·quota draws and applies nothing, as drawing
// row by row did.
func TestPlanAllStaleSpendsBudget(t *testing.T) {
	const bs = 32
	cfg := streamConfig(16, false)
	cfg.Workers = 1
	cfg.WindowBlocks = 1
	cfg.RebuildEvery = 1 << 20 // only block 0's bootstrap table
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []BlockStats
	tr.SetOnBlock(func(s BlockStats) { blocks = append(blocks, s) })
	ingestAll(t, tr, makeSkewedCorpus(2*bs, 16, 0.5, 2, 2), bs)
	if len(blocks) != 2 || blocks[0].Updates != bs || blocks[1].Updates != bs {
		t.Fatalf("blocks %+v: want block 0 to apply %d updates and block 1 none", blocks, bs)
	}
	if p := tr.plans[0]; p.drawn != 4*bs || p.applied != 0 || len(p.rows) != 0 {
		t.Fatalf("all-stale block: drew %d, applied %d, planned %d; want %d, 0, 0", p.drawn, p.applied, len(p.rows), 4*bs)
	}
}

// TestTrainerF32OutOfRangeFeatures: rows that carry features at or beyond
// Dim lose them at admission, at either precision, and the f32 run stays
// within the f32-versus-f64 band of TestTrainerF32MatchesF64.
func TestTrainerF32OutOfRangeFeatures(t *testing.T) {
	const (
		n      = 1024
		dim    = 48 // the corpus spans 64 features
		bs     = 128
		corpus = 64
	)
	data := makeSkewedCorpus(n, corpus, 0.8, 7, 7)
	run := func(precision string) float64 {
		cfg := streamConfig(dim, false)
		cfg.Workers = 1
		cfg.Precision = precision
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ingestAll(t, tr, data, bs)
		for _, j := range tr.win.x.Idx {
			if j >= dim {
				t.Fatalf("%q: the window kept feature %d of a %d-feature model", precision, j, dim)
			}
		}
		if x := &tr.win.x; (precision == model.PrecisionF32) != (len(x.Val32) == len(x.Val)) {
			t.Fatalf("%q: %d float32 values for %d values", precision, len(x.Val32), len(x.Val))
		}
		w := tr.Snapshot(nil)
		// Evaluate clamps to w's Dim features, so the dropped features
		// score 0, as they did in training.
		loss, _, _, _, err := Evaluate(strings.NewReader(data), "oor", bs, cfg.Obj, w)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}
	l64, l32 := run(""), run(model.PrecisionF32)
	if math.Abs(l32-l64) > 1e-2*(1+math.Abs(l64)) {
		t.Fatalf("f32 loss %g vs f64 %g — outside 1%% band", l32, l64)
	}
}

// TestReaderRecycledZeroAlloc: a Reader refilling the blocks handed back
// to it allocates nothing per block once warm.
func TestReaderRecycledZeroAlloc(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const bs = 256
	block := makeSkewedCorpus(bs, 128, 0.5, 1, 1)
	r := NewReader(strings.NewReader(strings.Repeat(block, 64)), "recycle", bs)
	next := func() {
		b, err := r.Next()
		if err != nil || b.Len() != bs {
			t.Fatalf("Next: %v", err)
		}
		r.recycle(b)
	}
	for i := 0; i < 4; i++ { // the first blocks allocate the pool
		next()
	}
	if n := testing.AllocsPerRun(32, next); n != 0 {
		t.Fatalf("Next with recycling allocates %.1f objects per block, want 0", n)
	}
}

// TestEvaluateRecyclesBlocks pins that Evaluate's reader reuses its
// blocks: scoring a long stream costs a bounded number of allocations,
// not some per block.
func TestEvaluateRecyclesBlocks(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	data := strings.Repeat(makeSkewedCorpus(64, 32, 0.5, 1, 1), 64)
	w := make([]float64, 32)
	obj := objective.LogisticL1{Eta: 1e-4}
	short := testing.AllocsPerRun(4, func() { Evaluate(io.LimitReader(bytes.NewReader([]byte(data)), int64(len(data)/16)), "e", 64, obj, w) })
	long := testing.AllocsPerRun(4, func() { Evaluate(bytes.NewReader([]byte(data)), "e", 64, obj, w) })
	if long > short+4 {
		t.Fatalf("scoring 16× the rows costs %.0f allocations against %.0f", long, short)
	}
}
