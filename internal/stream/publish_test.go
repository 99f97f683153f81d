package stream

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/snapshot"
)

// TestTrainerPublishesSnapshots pins mid-stream publication: one
// version per PublishEvery ingested blocks, cut before OnBlock fires,
// plus a final version when the cadence missed the last block.
func TestTrainerPublishesSnapshots(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 96; i++ {
		if i%2 == 0 {
			sb.WriteString("1 1:1.0 3:0.5\n")
		} else {
			sb.WriteString("-1 2:1.0 4:0.25\n")
		}
	}

	st := snapshot.NewStore()
	var seqAtBlock []uint64
	cfg := Config{
		Obj: objective.LogisticL1{Eta: 1e-4}, Dim: 4,
		Workers: 2, Step: 0.3, WindowBlocks: 2, Seed: 9,
		Snapshots: st, PublishEvery: 2,
		OnBlock: func(s BlockStats) { seqAtBlock = append(seqAtBlock, st.Seq()) },
	}
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 96 rows / block size 32 = 3 blocks: publishes after block 2 (cadence)
	// and after block 3 (final, cadence missed it).
	res, err := tr.Run(context.Background(), NewReader(strings.NewReader(sb.String()), "t", 32))
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 3 {
		t.Fatalf("blocks = %d, want 3", res.Blocks)
	}
	if len(seqAtBlock) != 3 || seqAtBlock[0] != 0 || seqAtBlock[1] != 1 || seqAtBlock[2] != 1 {
		t.Fatalf("seq at each OnBlock = %v, want [0 1 1]", seqAtBlock)
	}
	v := st.Load()
	if v == nil || v.Seq != 2 || v.Epoch != 3 || v.Iters != res.Updates {
		t.Fatalf("final version = %+v, want seq 2 epoch 3 iters %d", v, res.Updates)
	}
	for j, w := range res.Weights {
		if v.Weights[j] != w {
			t.Fatalf("final version weights diverge from result at %d", j)
		}
	}
}

// TestRunFailsOnDivergence: a step size that blows the weights up to
// non-finite values must fail the run (mirroring solver.Train), not
// complete with NaN weights that the snapshot store silently refused to
// serve.
func TestRunFailsOnDivergence(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 64; i++ {
		sb.WriteString("1 1:1000.0\n-1 2:1000.0\n")
	}
	st := snapshot.NewStore()
	cfg := Config{
		Obj: objective.LeastSquaresL2{Eta: 1e-4}, Dim: 2,
		Workers: 1, Step: 1e300, WindowBlocks: 2, Seed: 3,
		Snapshots: st, PublishEvery: 1,
	}
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(context.Background(), NewReader(strings.NewReader(sb.String()), "d", 32))
	if err == nil {
		t.Fatalf("diverged run completed without error (weights %v)", res.Weights)
	}
	// Whatever the store holds is finite: non-finite versions were
	// rejected at publication.
	if v := st.Load(); v != nil {
		for j, w := range v.Weights {
			if w != w || w-w != 0 {
				t.Fatalf("store serves non-finite weight %g at %d", w, j)
			}
		}
	}
}

// TestRangedCutEqualsSnapshot: the version the trainer publishes — cut
// range by range on its workers, finiteness checked on the way — holds
// exactly what Model().Snapshot copies from the same quiescent model,
// for every model kind; and a non-finite weight in any worker's range
// rejects the version.
func TestRangedCutEqualsSnapshot(t *testing.T) {
	const dim = 3*minCutRange + 17 // three ranges of unequal length
	kinds := []struct {
		kind      model.Kind
		precision string
	}{
		{model.KindAtomic, ""}, {model.KindRacy, ""},
		{model.KindAtomic, model.PrecisionF32}, {model.KindRacy, model.PrecisionF32},
	}
	for _, k := range kinds {
		st := snapshot.NewStore()
		tr, err := NewTrainer(Config{
			Obj: objective.LogisticL1{Eta: 1e-4}, Dim: dim, Workers: 3, Step: 0.1,
			ModelKind: k.kind, Precision: k.precision, Snapshots: st,
		})
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float64, dim)
		for j := range w {
			w[j] = float64(j%1001-500) / 64 // exact in float32 too
		}
		tr.Model().Load(w)
		tr.publish()
		v := st.Load()
		if v == nil || v.Seq != 1 || st.Rejects() != 0 {
			t.Fatalf("%v/%s: finite model not published (version %+v, %d rejects)", k.kind, k.precision, v, st.Rejects())
		}
		for j, x := range tr.Model().Snapshot(nil) {
			if v.Weights[j] != x || x != w[j] {
				t.Fatalf("%v/%s: coordinate %d: published %g, Snapshot %g, loaded %g", k.kind, k.precision, j, v.Weights[j], x, w[j])
			}
		}
		for r, j := range []int{5, dim / 2, dim - 1} { // one in each worker's range
			bad := append([]float64(nil), w...)
			bad[j] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r]
			tr.Model().Load(bad)
			tr.publish()
			if st.Seq() != 1 || st.Rejects() != int64(r+1) {
				t.Fatalf("%v/%s: %g at %d: seq %d, rejects %d; want the version refused", k.kind, k.precision, bad[j], j, st.Seq(), st.Rejects())
			}
		}
	}
}
