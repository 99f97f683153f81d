package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
)

// weightHash is FNV-1a over the weights' little-endian bit patterns.
func weightHash(w []float64) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, w) // a hash.Hash never fails a Write
	return h.Sum64()
}

// TestPinnedWeights pins the worker loops bitwise: a single-worker
// IS-SGD run with a fixed seed must end on exactly the weights recorded
// before the per-precision loops were merged into the generic ones, for
// every model kind on the plain, minibatch and adaptive paths. The f32
// adaptive rows did not exist then (the f32 path rejected the policy);
// they pin the behaviour the merge introduced. The adaptive policy runs
// with τ = 0 (one worker), so it is the decomposed Dot → Deriv →
// UpdateDC path against the epoch-start base that is pinned.
func TestPinnedWeights(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(23))
	if err != nil {
		t.Fatal(err)
	}
	objs := map[string]objective.Objective{
		"l1": objective.LogisticL1{Eta: 1e-4},
		"l2": objective.LeastSquaresL2{Eta: 1e-3},
	}
	f64Kinds := []model.Kind{model.KindAtomic, model.KindRacy}
	f32Kinds := []model.Kind{model.KindRacy32, model.KindRacy32Blocked, model.KindAtomic32}
	// One worker makes every storage of a precision bitwise-equal, so a
	// row pins all of its kinds to one hash.
	for _, tc := range []struct {
		kinds []model.Kind
		mode  string
		obj   string
		want  uint64
	}{
		{f64Kinds, "plain", "l1", 0xfcd6262c7f56c7e7},
		{f64Kinds, "plain", "l2", 0x8395b89f5c7ccc04},
		{f64Kinds, "batch", "l1", 0x87f48213f7e48425},
		{f64Kinds, "batch", "l2", 0xaddea681b1b7e1bc},
		{f64Kinds, "adaptive", "l1", 0x7e50625e165a42f1},
		{f64Kinds, "adaptive", "l2", 0x8d406604b7f9f614},
		{f32Kinds, "plain", "l1", 0x63982a102c21d18a},
		{f32Kinds, "plain", "l2", 0xb91fec1c29892157},
		{f32Kinds, "batch", "l1", 0x7bd397cb8de39b4f},
		{f32Kinds, "batch", "l2", 0x5953f369c99a77f4},
		{f32Kinds, "adaptive", "l1", 0xa1cfc9c1fc560135},
		{f32Kinds, "adaptive", "l2", 0xafed2b4d1998d84b},
	} {
		for _, kind := range tc.kinds {
			t.Run(kind.String()+"/"+tc.mode+"/"+tc.obj, func(t *testing.T) {
				obj := objs[tc.obj]
				e, err := NewISSGD(ds, obj, model.New(kind, ds.Dim()), 99, false)
				if err != nil {
					t.Fatal(err)
				}
				switch tc.mode {
				case "batch":
					e.SetBatch(8)
				case "adaptive":
					if err := e.SetAdaptive(adaptive.Policy{AdaptC: 0.5, StalenessBound: 4, DCLambda: 0.05}); err != nil {
						t.Fatal(err)
					}
				}
				for epoch := 0; epoch < 3; epoch++ {
					e.RunEpoch(0.3)
				}
				if got := weightHash(e.Snapshot(nil)); got != tc.want {
					t.Errorf("final weights hash %#x, want %#x", got, tc.want)
				}
			})
		}
	}
}
