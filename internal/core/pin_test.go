package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

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

var (
	pinF64Kinds = []model.Kind{model.KindAtomic, model.KindRacy}
	pinF32Kinds = []model.Kind{model.KindRacy32, model.KindAtomic32}
)

// pinRow is one pinned single-worker run: every kind of a precision
// (one worker makes every storage of a precision bitwise-equal, so a row
// pins all of its kinds to one hash), a loop body and an objective.
type pinRow struct {
	kinds []model.Kind
	mode  string // "plain" or "adaptive"
	obj   string // "l1" or "l2"
	want  uint64
}

// checkPins runs each row's kinds for three epochs on Small(23) through
// build and compares the final weights' hash. The adaptive policy runs
// with τ = 0 (one worker), so it is the decomposed Dot → Deriv →
// UpdateDC path against the epoch-start base that is pinned.
func checkPins(t *testing.T, rows []pinRow, build func(*dataset.Dataset, objective.Objective, model.Params) (*Engine, error)) {
	ds, err := dataset.Synthesize(dataset.Small(23))
	if err != nil {
		t.Fatal(err)
	}
	objs := map[string]objective.Objective{
		"l1": objective.LogisticL1{Eta: 1e-4},
		"l2": objective.LeastSquaresL2{Eta: 1e-3},
	}
	for _, tc := range rows {
		for _, kind := range tc.kinds {
			t.Run(kind.String()+"/"+tc.mode+"/"+tc.obj, func(t *testing.T) {
				e, err := build(ds, objs[tc.obj], model.New(kind, ds.Dim()))
				if err != nil {
					t.Fatal(err)
				}
				if tc.mode == "adaptive" {
					if err := e.SetDC(0.05); err != nil {
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

// TestPinnedWeights pins the worker loops bitwise: a single-worker
// IS-SGD run with a fixed seed must end on exactly the weights recorded
// before the per-precision loops were merged into the generic ones, for
// every model kind on the plain and adaptive paths. The f32
// adaptive rows did not exist then (the f32 path rejected the policy);
// they pin the behaviour the merge introduced.
func TestPinnedWeights(t *testing.T) {
	checkPins(t, []pinRow{
		{pinF64Kinds, "plain", "l1", 0xfcd6262c7f56c7e7},
		{pinF64Kinds, "plain", "l2", 0x8395b89f5c7ccc04},
		{pinF64Kinds, "adaptive", "l1", 0x7e50625e165a42f1},
		{pinF64Kinds, "adaptive", "l2", 0x8d406604b7f9f614},
		{pinF32Kinds, "plain", "l1", 0x63982a102c21d18a},
		{pinF32Kinds, "plain", "l2", 0xb91fec1c29892157},
		{pinF32Kinds, "adaptive", "l1", 0xa1cfc9c1fc560135},
		{pinF32Kinds, "adaptive", "l2", 0xafed2b4d1998d84b},
	}, func(ds *dataset.Dataset, obj objective.Objective, m model.Params) (*Engine, error) {
		return NewISSGD(ds, obj, m, 99, false)
	})
}

// TestPinnedWeightsUniform pins the uniform arm the same way: a
// single-worker plain-SGD run must end on exactly the weights recorded
// when the worker loop still drew each position online with rng.Intn,
// before the uniform positions were written into a per-epoch sequence.
func TestPinnedWeightsUniform(t *testing.T) {
	checkPins(t, []pinRow{
		{pinF64Kinds, "plain", "l1", 0xeb1c2a5241605c22},
		{pinF64Kinds, "plain", "l2", 0x41120545f7d18d3a},
		{pinF64Kinds, "adaptive", "l1", 0x9aaf8c305e73ac19},
		{pinF64Kinds, "adaptive", "l2", 0xf499c6e0b40a3579},
		{pinF32Kinds, "plain", "l1", 0xe2d0e9edd705acb4},
		{pinF32Kinds, "plain", "l2", 0xa0d0215ec9391e6b},
		{pinF32Kinds, "adaptive", "l1", 0xa2349f7cb769ee34},
		{pinF32Kinds, "adaptive", "l2", 0xf2adb606dd588116},
	}, func(ds *dataset.Dataset, obj objective.Objective, m model.Params) (*Engine, error) {
		return NewSGD(ds, obj, m, 99)
	})
}
