package core

import (
	"math"
	"slices"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/sampling"
	"github.com/isasgd/isasgd/internal/sparse"
)

// prepCorpora are the corpora of the construction pass: the small
// synthetic set, one whose empty rows sit at the start, in runs and at
// the end (so row ranges split by nnz begin and end on them), and one
// with fewer rows than the test's largest worker count.
func prepCorpora(t *testing.T) map[string]*dataset.Dataset {
	t.Helper()
	small, err := dataset.Synthesize(dataset.Small(29))
	if err != nil {
		t.Fatal(err)
	}
	fromRows := func(name string, rows []sparse.Vector, y []float64) *dataset.Dataset {
		ds, err := dataset.FromRows(name, small.Dim(), rows, y)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	var rows []sparse.Vector
	var y []float64
	for i := 0; i < 60; i++ {
		row := small.X.Row(i)
		if i < 3 || i%7 == 0 || (i >= 20 && i < 26) || i >= 57 {
			row = sparse.Vector{}
		}
		rows, y = append(rows, row), append(y, small.Y[i])
	}
	return map[string]*dataset.Dataset{
		"small":      small,
		"empty-rows": fromRows("empty-rows", rows, y),
		"few-rows":   fromRows("few-rows", []sparse.Vector{small.X.Row(0), {}, small.X.Row(2)}, small.Y[:3]),
	}
}

// TestParallelPrepMatchesSerial: newEngine's pass split across 1–4
// workers, and buildSamplers run on the workers' goroutines, give what
// the serial code gives. The index copy is the layout applied row by
// row; Val32 is a fresh conversion and the CSR's EnsureVal32 cache; the
// pass's ‖x_i‖² map to objective.Weights through Lipschitz and to
// grad's norms as Norm2; and every worker's shard, scales and sequence
// are those of a serial buildSamplers over objective.Weights. It covers
// the bound, grad and uniform constructions in both precisions.
func TestParallelPrepMatchesSerial(t *testing.T) {
	obj := objective.LogisticL1{Eta: 1e-4}
	for name, ds := range prepCorpora(t) {
		weights := objective.Weights(ds.X, obj)
		for threads := 1; threads <= 4; threads++ {
			for _, kind := range []model.Kind{model.KindAtomic, model.KindRacy32} {
				ds.X.SetVal32(nil)
				normSq := make([]float64, ds.N())
				if _, err := newEngine(ds, obj, model.New(kind, ds.Dim()), threads, 9, normSq); err != nil {
					t.Fatal(err)
				}
				for i, sq := range normSq {
					if l := obj.Lipschitz(sq); math.Float64bits(l) != math.Float64bits(weights[i]) {
						t.Fatalf("%s/t%d/%v: row %d: L %v, objective.Weights %v", name, threads, kind, i, l, weights[i])
					}
				}
				for _, arm := range []string{"uniform", "bound", "grad"} {
					ds.X.SetVal32(nil)
					e := prepBuild(t, ds, obj, kind, threads, arm)
					checkPrepRows(t, name+"/"+arm, e, ds, kind.Is32())
					if arm == "uniform" {
						continue
					}
					ref := serialSamplers(t, ds, weights, kind, threads, prepMode(arm))
					if !slices.EqualFunc(e.shards, ref.shards, slices.Equal) {
						t.Fatalf("%s/%s/t%d/%v: shards differ", name, arm, threads, kind)
					}
					for w := range ref.shards {
						sameBits(t, e.scales[w], ref.scales[w])
						if !slices.Equal(e.seqs[w], ref.seqs[w]) {
							t.Fatalf("%s/%s/t%d/%v: worker %d's sequence differs", name, arm, threads, kind, w)
						}
					}
					if arm == "grad" {
						for i := range e.norms {
							if want := ds.X.Row(i).Norm2(); math.Float64bits(e.norms[i]) != math.Float64bits(want) || e.grads[i] != -1 {
								t.Fatalf("%s/t%d/%v: row %d: norm %v grad %v, want %v and -1", name, threads, kind, i, e.norms[i], e.grads[i], want)
							}
						}
					}
				}
			}
		}
	}
}

// prepMode is the plan each IS arm takes: bound the head–tail branch,
// grad the shuffle, which draws from the first worker's rng.
func prepMode(arm string) balance.Mode {
	if arm == "bound" {
		return balance.ForceBalance
	}
	return balance.ForceShuffle
}

// prepBuild constructs arm ("uniform", "bound" or "grad") at seed 9.
func prepBuild(t *testing.T, ds *dataset.Dataset, obj objective.Objective, kind model.Kind, threads int, arm string) *Engine {
	t.Helper()
	m := model.New(kind, ds.Dim())
	var e *Engine
	var err error
	switch arm {
	case "uniform":
		e, err = NewASGD(ds, obj, m, threads, 9)
	case "bound":
		e, err = NewISASGDOpts(ds, obj, m, threads, ISOptions{Mode: prepMode(arm), Seed: 9})
	default:
		e, err = NewISASGDOpts(ds, obj, m, threads, ISOptions{Mode: prepMode(arm), Seed: 9, Importance: "grad"})
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkPrepRows checks e's rows against ds: every index at its slot
// a·j mod dim, and in float32 every value converted and the copy
// installed as the CSR's cache.
func checkPrepRows(t *testing.T, name string, e *Engine, ds *dataset.Dataset, f32 bool) {
	t.Helper()
	for i := 0; i < ds.N(); i++ {
		lo := ds.X.IndPtr[i]
		for k, j := range ds.X.Row(i).Idx {
			if got, want := e.x.Idx[lo+int64(k)], int32(int64(e.lay.a)*int64(j)%int64(e.lay.dim)); got != want {
				t.Fatalf("%s/t%d: row %d, index %d at slot %d, want %d", name, e.numT, i, j, got, want)
			}
		}
	}
	if !f32 {
		if e.x.Val32 != nil {
			t.Fatalf("%s/t%d: a float64 engine holds float32 values", name, e.numT)
		}
		return
	}
	if len(e.x.Val32) != len(ds.X.Val) {
		t.Fatalf("%s/t%d: %d float32 values for %d", name, e.numT, len(e.x.Val32), len(ds.X.Val))
	}
	for k, v := range ds.X.Val {
		if e.x.Val32[k] != float32(v) {
			t.Fatalf("%s/t%d: value %d reads %v, want %v", name, e.numT, k, e.x.Val32[k], float32(v))
		}
	}
	if c := ds.X.EnsureVal32(); len(c) > 0 && &c[0] != &e.x.Val32[0] {
		t.Fatalf("%s/t%d: the CSR's float32 cache is not the engine's copy", name, e.numT)
	}
}

// serialSamplers is the serial reference of NewISASGDOpts's samplers:
// the plan over objective.Weights, then every worker's alias table,
// scales and sequence built one worker after another.
func serialSamplers(t *testing.T, ds *dataset.Dataset, weights []float64, kind model.Kind, threads int, mode balance.Mode) *Engine {
	t.Helper()
	ref, err := newEngine(ds, objective.LogisticL1{Eta: 1e-4}, model.New(kind, ds.Dim()), threads, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := balance.Plan(weights, ref.numT, mode, ref.rngs[0])
	ref.shards = balance.Split(order, ref.numT)
	ref.scales, ref.seqs = make([][]float64, ref.numT), make([][]int32, ref.numT)
	ref.samplers = make([]sampling.Sampler, ref.numT)
	for w, shard := range ref.shards {
		localL := make([]float64, len(shard))
		for k, i := range shard {
			localL[k] = weights[i]
		}
		if err := ref.setWeights(w, localL); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}
