package stream

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/snapshot"
)

// TestTrainerF32MatchesF64 is the streaming half of the end-to-end f32
// acceptance criterion: a single-worker run over the synthetic skewed
// corpus at f32 precision must reach the same full-corpus loss as the
// identically-seeded f64 run within a 1% relative band, on weights that
// are exactly float32-representable.
func TestTrainerF32MatchesF64(t *testing.T) {
	const (
		n   = 1024
		dim = 64
		bs  = 128
	)
	corpus := makeSkewedCorpus(n, dim, 0.8, 7, 7)
	run := func(precision string) (loss float64, weights []float64) {
		cfg := streamConfig(dim, false)
		cfg.Workers = 1
		cfg.Precision = precision
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run(context.Background(), NewReader(strings.NewReader(corpus), "f32", bs))
		if err != nil {
			t.Fatal(err)
		}
		if res.Updates == 0 {
			t.Fatal("no updates applied")
		}
		loss, _, _, _, err = Evaluate(strings.NewReader(corpus), "f32", bs, cfg.Obj, res.Weights)
		if err != nil {
			t.Fatal(err)
		}
		return loss, res.Weights
	}
	l64, _ := run("")
	l32, w32 := run(model.PrecisionF32)
	if math.Abs(l32-l64) > 1e-2*(1+math.Abs(l64)) {
		t.Fatalf("f32 loss %g vs f64 %g — outside 1%% band", l32, l64)
	}
	for j, w := range w32 {
		if w != float64(float32(w)) {
			t.Fatalf("weight %d = %g is not float32-representable — f32 path not taken", j, w)
		}
	}
}

// TestTrainerF32StampsSnapshotDType: an f32 streaming trainer must
// declare its storage precision on the snapshot store at construction
// (before any block is published); f64 trainers leave the default.
func TestTrainerF32StampsSnapshotDType(t *testing.T) {
	cfg := streamConfig(16, false)
	cfg.Workers = 1
	cfg.Precision = model.PrecisionF32
	st := snapshot.NewStore()
	cfg.Snapshots = st
	if _, err := NewTrainer(cfg); err != nil {
		t.Fatal(err)
	}
	if dt := st.DType(); dt != model.PrecisionF32 {
		t.Fatalf("f32 trainer stamped dtype %q, want f32", dt)
	}

	cfg64 := streamConfig(16, false)
	cfg64.Workers = 1
	st64 := snapshot.NewStore()
	cfg64.Snapshots = st64
	if _, err := NewTrainer(cfg64); err != nil {
		t.Fatal(err)
	}
	if dt := st64.DType(); dt != model.PrecisionF64 {
		t.Fatalf("f64 trainer stamped dtype %q, want f64", dt)
	}
}

// TestTrainerPrecisionValidation rejects unknown precision names.
func TestTrainerPrecisionValidation(t *testing.T) {
	cfg := streamConfig(8, false)
	cfg.Precision = "bf16"
	if _, err := NewTrainer(cfg); err == nil {
		t.Fatal("unknown precision accepted")
	}
}
