package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/obs"
)

func TestPartialBiasWeights(t *testing.T) {
	l := []float64{1, 2, 3, 4} // mean 2.5
	out := PartialBiasWeights(l)
	want := []float64{1.75, 2.25, 2.75, 3.25}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("PartialBiasWeights = %v, want %v", out, want)
		}
	}
	// Normalized, every p_i must satisfy p_i ≥ 1/(2n), so the step
	// correction 1/(n·p_i) ≤ 2 — the Needell et al. guarantee.
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	n := float64(len(out))
	for i, v := range out {
		p := v / sum
		if scale := 1 / (n * p); scale > 2+1e-12 {
			t.Fatalf("sample %d: step correction %g exceeds 2", i, scale)
		}
	}
}

func TestPartialBiasEngineOption(t *testing.T) {
	ds, obj := smallProblem(t)
	e, err := NewISASGDOpts(ds, obj, model.NewAtomic(ds.Dim()), 4, ISOptions{
		Seed: 3, PartialBias: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for t2, sc := range e.scales {
		for k, s := range sc {
			if s > 2+1e-9 {
				t.Fatalf("worker %d pos %d: scale %g exceeds 2 under partial bias", t2, k, s)
			}
		}
	}
	before := objValue(ds, obj, e.Snapshot(nil))
	for ep := 0; ep < 4; ep++ {
		e.RunEpoch(0.5)
	}
	if after := objValue(ds, obj, e.Snapshot(nil)); after >= before*0.9 {
		t.Fatalf("partial-bias engine failed to optimize: %g -> %g", before, after)
	}
}

// gradEngine builds an IS-ASGD engine under gradient-norm importance.
func gradEngine(t *testing.T, kind model.Kind, threads int, seed uint64) *Engine {
	t.Helper()
	ds, obj := smallProblem(t)
	e, err := NewISASGDOpts(ds, obj, model.New(kind, ds.Dim()), threads, ISOptions{
		Seed: seed, Importance: "grad",
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestGradFirstEpochIsBound checks that recording costs the arithmetic
// nothing: the first epoch of gradient-norm importance samples from the
// static bound, and its recording body is Step split around the store
// of |ℓ'|, so it ends on the bound run's weights bitwise — on the plain,
// the instrumented and the adaptive paths, at both precisions. The
// second epoch samples from the recorded gradients and moves away.
func TestGradFirstEpochIsBound(t *testing.T) {
	ds, obj := smallProblem(t)
	for _, kind := range []model.Kind{model.KindAtomic, model.KindRacy32} {
		for _, path := range []string{"plain", "instrumented", "dc"} {
			run := func(importance string, epochs int) []float64 {
				e, err := NewISASGDOpts(ds, obj, model.New(kind, ds.Dim()), 1, ISOptions{
					Mode: balance.ForceShuffle, Seed: 13, Importance: importance,
				})
				if err != nil {
					t.Fatal(err)
				}
				switch path {
				case "instrumented":
					e.Instrument(obs.NewTrainInstruments(obs.NewRegistry(), "m"))
				case "dc":
					if err := e.SetDC(0.05); err != nil {
						t.Fatal(err)
					}
				}
				for ep := 0; ep < epochs; ep++ {
					e.RunEpoch(0.5)
				}
				return e.Snapshot(nil)
			}
			if b, g := weightHash(run("bound", 1)), weightHash(run("grad", 1)); b != g {
				t.Errorf("%v/%s: first grad epoch %#x, bound %#x", kind, path, g, b)
			}
			if b, g := weightHash(run("bound", 2)), weightHash(run("grad", 2)); b == g {
				t.Errorf("%v/%s: second grad epoch still samples the bound", kind, path)
			}
		}
	}
}

// TestGradReweighsFromRecorded runs one epoch at step 0, so the model
// stays at 0 and every update records the logistic |ℓ'(0)| = ½. The
// worker's rebuild must then weigh its rows by ½·‖x_i‖ — a row the
// epoch missed takes the largest recorded |ℓ'|, also ½ — through the
// partial-bias mix, and its step scales are 1/(N_a·p) ≤ 2.
func TestGradReweighsFromRecorded(t *testing.T) {
	e := gradEngine(t, model.KindAtomic, 3, 5)
	before := append([]int32(nil), e.seqs[0]...)
	e.RunEpoch(0)
	for t2, shard := range e.shards {
		sumNorm := 0.0
		for _, i := range shard {
			sumNorm += e.norms[i]
			if g := e.grads[i]; g != 0.5 && g != -1 {
				t.Fatalf("row %d recorded |ℓ'| = %g, want 0.5 (or -1 unvisited)", i, g)
			}
		}
		n := float64(len(shard))
		type prober interface{ Prob(int) float64 }
		for k, i := range shard {
			want := 0.5 * (1/n + e.norms[i]/sumNorm)
			if p := e.samplers[t2].(prober).Prob(k); math.Abs(p-want) > 1e-12 {
				t.Fatalf("worker %d row %d: p = %g, want %g", t2, i, p, want)
			}
			if s := e.scales[t2][k]; s > 2+1e-12 {
				t.Fatalf("worker %d row %d: scale %g exceeds 2", t2, i, s)
			}
		}
	}
	if slices.Equal(before, e.seqs[0]) {
		t.Fatal("the rebuild did not draw a new sequence")
	}
}

// TestGradImportanceValidation rejects an unknown importance mode with
// an error naming both modes.
func TestGradImportanceValidation(t *testing.T) {
	ds, obj := smallProblem(t)
	_, err := NewISASGDOpts(ds, obj, model.NewAtomic(ds.Dim()), 2, ISOptions{Importance: "loss"})
	if err == nil || !strings.Contains(err.Error(), "bound") || !strings.Contains(err.Error(), "grad") {
		t.Fatalf("importance loss: err %v, want one naming bound and grad", err)
	}
}
