package core

import (
	"fmt"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/sparse"
)

// lookaheadCorpora are the corpora whose shapes reach the edges of the
// worker loop's row lookahead: shards shorter than either lookahead
// distance, a CSR whose last rows are empty (their IndPtr equals
// len(Idx)), and rows with private coordinates, so that two concurrent
// workers never touch the same weight and their result is deterministic.
func lookaheadCorpora(t *testing.T) map[string]*dataset.Dataset {
	t.Helper()
	small, err := dataset.Synthesize(dataset.Small(23))
	if err != nil {
		t.Fatal(err)
	}
	first := func(n int) *dataset.Dataset {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return small.Reorder(order)
	}
	fromRows := func(name string, dim int, rows []sparse.Vector, y []float64) *dataset.Dataset {
		ds, err := dataset.FromRows(name, dim, rows, y)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}

	var rows []sparse.Vector
	var y []float64
	for i := 0; i < 40; i++ {
		rows = append(rows, small.X.Row(i))
		y = append(y, small.Y[i])
	}
	for i := 0; i < 6; i++ {
		rows = append(rows, sparse.Vector{})
		y = append(y, float64(1-2*(i%2)))
	}
	trailing := fromRows("trailing-empty", small.Dim(), rows, y)

	const privRows = 64
	rows, y = nil, nil
	for i := 0; i < privRows; i++ {
		rows = append(rows, sparse.Vector{
			Idx: []int32{int32(2 * i), int32(2*i + 1)},
			Val: []float64{0.5 + float64(i%7)/7, -0.25 - float64(i%5)/5},
		})
		y = append(y, float64(1-2*(i%3%2)))
	}
	private := fromRows("private", 2*privRows, rows, y)

	return map[string]*dataset.Dataset{
		"rows1": first(1), "rows2": first(2), "rows15": first(15), "rows30": first(30),
		"trailing-empty": trailing, "private": private,
	}
}

// TestLookaheadEdges pins the worker loop at the edges of its row
// lookahead, for the importance-sampled and the uniform arm, to the
// weights recorded before the lookahead existed:
//
//   - shards of 1, 2 and 15 rows, all shorter than either lookahead
//     distance (rows30 is two 15-row shards, run serially);
//   - trailing empty rows, which the uniform arm draws and whose row
//     start is one past the last stored index;
//   - every f32 kind;
//   - two concurrent workers on KindAtomic (under -race in the hand-off
//     gate), deterministic because no two rows share a coordinate.
func TestLookaheadEdges(t *testing.T) {
	corpora := lookaheadCorpora(t)
	obj := objective.LogisticL1{Eta: 1e-4}
	atomicOnly := []model.Kind{model.KindAtomic}
	for _, tc := range []struct {
		corpus     string
		threads    int
		concurrent bool
		arm        string // "is" or "uniform"
		kinds      []model.Kind
		want       uint64
	}{
		{"rows1", 1, false, "is", pinF64Kinds, 0x363633deb94f4e50},
		{"rows1", 1, false, "is", pinF32Kinds, 0xca6ca1a44fc7687e},
		{"rows1", 1, false, "uniform", pinF64Kinds, 0x363633deb94f4e50},
		{"rows1", 1, false, "uniform", pinF32Kinds, 0xca6ca1a44fc7687e},
		{"rows2", 1, false, "is", pinF64Kinds, 0x82e4e01eae3ef9b9},
		{"rows2", 1, false, "is", pinF32Kinds, 0xe72ed5e235a4d799},
		{"rows2", 1, false, "uniform", pinF64Kinds, 0x775992badb7bf9f7},
		{"rows2", 1, false, "uniform", pinF32Kinds, 0x9d914b76ae00d5e5},
		{"rows15", 1, false, "is", pinF64Kinds, 0x2fcfc465e6384b1e},
		{"rows15", 1, false, "is", pinF32Kinds, 0x9d3e6a704cda2c04},
		{"rows15", 1, false, "uniform", pinF64Kinds, 0x40705583632a8ac0},
		{"rows15", 1, false, "uniform", pinF32Kinds, 0x1a935fd5b31b91c6},
		{"rows30", 2, false, "is", pinF64Kinds, 0x88e1473f9127b88c},
		{"rows30", 2, false, "is", pinF32Kinds, 0x51de0f63872df943},
		{"rows30", 2, false, "uniform", pinF64Kinds, 0xa0044ef3ee93bb5d},
		{"rows30", 2, false, "uniform", pinF32Kinds, 0x277ae88479ab1b32},
		{"trailing-empty", 1, false, "is", pinF64Kinds, 0x50e3e74d1caf9d7f},
		{"trailing-empty", 1, false, "is", pinF32Kinds, 0x5981c7edb4276b3b},
		{"trailing-empty", 1, false, "uniform", pinF64Kinds, 0x9bf78e9a6142c4f0},
		{"trailing-empty", 1, false, "uniform", pinF32Kinds, 0xd78650d41bc50b1},
		{"private", 2, true, "is", atomicOnly, 0xf9f0f34aced0adeb},
		{"private", 2, true, "uniform", atomicOnly, 0x3295c796a67ee114},
	} {
		ds := corpora[tc.corpus]
		for _, kind := range tc.kinds {
			t.Run(fmt.Sprintf("%s/t%d/%s/%s", tc.corpus, tc.threads, tc.arm, kind), func(t *testing.T) {
				m := model.New(kind, ds.Dim())
				var e *Engine
				var err error
				if tc.arm == "is" {
					e, err = NewISASGDOpts(ds, obj, m, tc.threads, ISOptions{Mode: balance.ForceShuffle, Seed: 5})
				} else {
					e, err = NewASGD(ds, obj, m, tc.threads, 5)
				}
				if err != nil {
					t.Fatal(err)
				}
				for epoch := 0; epoch < 3; epoch++ {
					if tc.concurrent {
						if n := e.RunEpoch(0.3); n != int64(ds.N()) {
							t.Fatalf("epoch applied %d of %d updates", n, ds.N())
						}
					} else {
						e.RunEpochSerial(0.3)
					}
				}
				if got := weightHash(e.Snapshot(nil)); got != tc.want {
					t.Errorf("final weights hash %#x, want %#x", got, tc.want)
				}
			})
		}
	}
}
