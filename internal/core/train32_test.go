package core

import (
	"context"
	"math"
	"testing"

	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/snapshot"
)

// TestPrecisionF32Converges trains identically-seeded single-worker
// IS-ASGD runs at both widths: the f32 run must land within 1%
// (relative) of the f64 final objective and its weights must be exactly
// float32-representable (proof the training state really was stored at
// half width, not converted after the fact).
func TestPrecisionF32Converges(t *testing.T) {
	ds, obj := testProblem(t)
	base := Config{Algo: ISASGD, Epochs: 6, Step: 0.5, Threads: 1, Seed: 11, ModelKind: model.KindRacy}
	res64, err := Train(context.Background(), ds, obj, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg32 := base
	cfg32.Precision = model.PrecisionF32
	res32, err := Train(context.Background(), ds, obj, cfg32)
	if err != nil {
		t.Fatal(err)
	}
	o64, o32 := res64.Curve.Final().Obj, res32.Curve.Final().Obj
	if math.Abs(o32-o64) > 1e-2*(1+math.Abs(o64)) {
		t.Fatalf("f32 objective %g vs f64 %g — outside 1%% band", o32, o64)
	}
	if o32 >= res32.Curve[0].Obj*0.8 {
		t.Fatalf("f32 barely moved: %g -> %g", res32.Curve[0].Obj, o32)
	}
	for j, w := range res32.Weights {
		if w != float64(float32(w)) {
			t.Fatalf("weight %d = %g is not float32-representable — f32 path not taken", j, w)
		}
	}
}

// TestPrecisionPromotesModelKind pins the knob's kind mapping: async
// runs promote the configured kind, sequential runs promote the racy
// default, and an explicitly f32 ModelKind trains f32 with no Precision
// set.
func TestPrecisionPromotesModelKind(t *testing.T) {
	ds, obj := testProblem(t)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"asgd-atomic32", Config{Algo: ASGD, ModelKind: model.KindAtomic, Precision: "f32"}},
		{"sgd-racy32", Config{Algo: SGD, Precision: "F32"}}, // case-insensitive
		{"isasgd-explicit-racy32", Config{Algo: ISASGD, ModelKind: model.KindRacy32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			// Threads 1 keeps the racy32 kinds race-detector-clean; the
			// concurrent f32 paths are covered by internal/core's tests.
			cfg.Epochs, cfg.Step, cfg.Threads, cfg.Seed = 2, 0.3, 1, 5
			res, err := Train(context.Background(), ds, obj, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for j, w := range res.Weights {
				if w != float64(float32(w)) {
					t.Fatalf("weight %d = %g not float32-representable", j, w)
				}
			}
		})
	}
}

// TestPrecisionStampsSnapshotDType: a training run that publishes
// snapshots must declare its storage precision on the store before the
// first version lands, so serving readers can pick the half-bandwidth
// f32 scoring path; f64 runs leave the default untouched.
func TestPrecisionStampsSnapshotDType(t *testing.T) {
	ds, obj := testProblem(t)
	base := Config{Algo: ISASGD, Epochs: 1, Step: 0.3, Threads: 1, Seed: 1, PublishEvery: 1}

	st32 := snapshot.NewStore()
	cfg := base
	cfg.Precision, cfg.Snapshots = model.PrecisionF32, st32
	if _, err := Train(context.Background(), ds, obj, cfg); err != nil {
		t.Fatal(err)
	}
	if dt := st32.DType(); dt != model.PrecisionF32 {
		t.Fatalf("f32 run stamped dtype %q, want f32", dt)
	}
	if st32.Load() == nil {
		t.Fatal("f32 run published no versions")
	}

	st64 := snapshot.NewStore()
	cfg = base
	cfg.Snapshots = st64
	if _, err := Train(context.Background(), ds, obj, cfg); err != nil {
		t.Fatal(err)
	}
	if dt := st64.DType(); dt != model.PrecisionF64 {
		t.Fatalf("f64 run stamped dtype %q, want f64", dt)
	}
}

// TestPrecisionValidation: unknown precision names must be rejected up
// front, for every algorithm.
func TestPrecisionValidation(t *testing.T) {
	ds, obj := testProblem(t)
	bad := []Config{
		{Algo: SGD, Epochs: 1, Step: 0.1, Precision: "f16"},
		{Algo: SVRGSGD, Epochs: 1, Step: 0.1, Precision: "f16"},
		{Algo: SVRGASGD, Epochs: 1, Step: 0.1, Precision: "half"},
	}
	for i, cfg := range bad {
		if _, err := Train(context.Background(), ds, obj, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
