package stream

import (
	"context"
	"fmt"
	"io"
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
// non-finite values must fail the run (mirroring core.Train), not
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
// exactly what Snapshot copies from the same quiescent model,
// for every model kind; a non-finite weight in any worker's range
// rejects the version; and over a run of cuts in which a reader loads
// only some versions, every version it loaded still equals the Snapshot
// taken at its cut after later cuts reused the buffers of the others.
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
		tr.load(w)
		tr.publish()
		v := st.Load()
		if v == nil || v.Seq != 1 || st.Rejects() != 0 {
			t.Fatalf("%v/%s: finite model not published (version %+v, %d rejects)", k.kind, k.precision, v, st.Rejects())
		}
		for j, x := range tr.Snapshot(nil) {
			if v.Weights[j] != x || x != w[j] {
				t.Fatalf("%v/%s: coordinate %d: published %g, Snapshot %g, loaded %g", k.kind, k.precision, j, v.Weights[j], x, w[j])
			}
		}
		for r, j := range []int{5, dim / 2, dim - 1} { // one in each worker's range
			bad := append([]float64(nil), w...)
			bad[j] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r]
			tr.load(bad)
			tr.publish()
			if st.Seq() != 1 || st.Rejects() != int64(r+1) {
				t.Fatalf("%v/%s: %g at %d: seq %d, rejects %d; want the version refused", k.kind, k.precision, bad[j], j, st.Seq(), st.Rejects())
			}
		}

		type cut struct {
			v    *snapshot.Version
			want []float64
		}
		var held []cut
		for c := 0; c < 9; c++ {
			for j := range w {
				w[j] = float64((j*(c+3))%1001-500) / 64
			}
			tr.load(w)
			tr.publish()
			if c%3 == 0 {
				held = append(held, cut{st.Load(), tr.Snapshot(nil)})
			}
		}
		for _, h := range held {
			for j, x := range h.want {
				if h.v.Weights[j] != x {
					t.Fatalf("%v/%s: version %d, coordinate %d: %g after later cuts, %g at its cut", k.kind, k.precision, h.v.Seq, j, h.v.Weights[j], x)
				}
			}
		}
	}
}

// TestPatchedCutEqualsSnapshot: over real Ingest blocks, where most cuts
// patch the buffer of an older version with only the coordinates the
// updates wrote since, a reader that loads and holds every k-th version
// finds each held version equal, bit for bit, to the Snapshot taken at
// its cut — for every model kind, at one and three workers and under
// gradient-norm importance, whose loop body records |ℓ'| beside each
// row as concurrent workers write — and the patch path ran.
// Concurrent racy workers are the Hogwild race itself, so the racy kinds
// run at three workers only without the race detector.
func TestPatchedCutEqualsSnapshot(t *testing.T) {
	const (
		dim    = 1 << 16 // a full cut splits it over the workers
		bs     = 128
		blocks = 24
		k      = 5
	)
	corpus := makeSkewedCorpus(blocks*bs, dim, 0.3, 3, 3)
	type run struct {
		kind      model.Kind
		precision string
		workers   int
		grad      bool
	}
	var runs []run
	for _, kind := range []model.Kind{model.KindAtomic, model.KindRacy} {
		for _, precision := range []string{"", model.PrecisionF32} {
			for _, workers := range []int{1, 3} {
				if kind == model.KindRacy && workers > 1 && model.RaceEnabled {
					continue
				}
				runs = append(runs, run{kind, precision, workers, false})
			}
		}
	}
	runs = append(runs, run{model.KindAtomic, "", 3, true})
	for _, r := range runs {
		name := fmt.Sprintf("%v/%s/%d workers/grad %v", r.kind, r.precision, r.workers, r.grad)
		st := snapshot.NewStore()
		cfg := streamConfig(dim, false)
		cfg.Workers, cfg.ModelKind, cfg.Precision, cfg.Snapshots = r.workers, r.kind, r.precision, st
		if r.grad {
			cfg.Importance = "grad"
		}
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		type cut struct {
			v    *snapshot.Version
			want []float64
		}
		var held []cut
		tr.SetOnBlock(func(b BlockStats) {
			if b.Block%k == k-1 {
				held = append(held, cut{st.Load(), tr.Snapshot(nil)})
			}
		})
		res, err := tr.Run(context.Background(), NewReader(strings.NewReader(corpus), "patch", bs))
		if err != nil {
			t.Fatal(err)
		}
		if res.Blocks != blocks || st.Seq() != blocks || st.Rejects() != 0 {
			t.Fatalf("%s: %d blocks, seq %d, %d rejects", name, res.Blocks, st.Seq(), st.Rejects())
		}
		// The first two cuts are full, and so is the second cut after
		// each held version: the store has no spare for it.
		if want := blocks - 2 - blocks/k; tr.cuts.patched != want {
			t.Fatalf("%s: %d of %d cuts patched, want %d", name, tr.cuts.patched, blocks, want)
		}
		for _, h := range held {
			if h.v.Epoch%k != 0 {
				t.Fatalf("%s: held version %d cut at block %d", name, h.v.Seq, h.v.Epoch)
			}
			for j, x := range h.want {
				if math.Float64bits(h.v.Weights[j]) != math.Float64bits(x) {
					t.Fatalf("%s: version %d, coordinate %d: %g, Snapshot at its cut %g", name, h.v.Seq, j, h.v.Weights[j], x)
				}
			}
		}
	}
}

// TestPatchedCutRejectsNonFinite: a patched cut screens every coordinate
// it copies, so weights that blow up between two cuts reject the cut, and
// the store keeps serving its last finite version.
func TestPatchedCutRejectsNonFinite(t *testing.T) {
	const dim, bs = 1 << 12, 64
	var sb strings.Builder
	for i := 0; i < 8*bs; i++ {
		fmt.Fprintf(&sb, "%d %d:1000.0\n", 1-2*(i%2), 1+i%dim)
	}
	st := snapshot.NewStore()
	tr, err := NewTrainer(Config{
		Obj: objective.LeastSquaresL2{Eta: 1e-4}, Dim: dim,
		Workers: 1, Step: 1e-9, WindowBlocks: 1, Seed: 3, Snapshots: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(strings.NewReader(sb.String()), "d", bs)
	ingest := func() {
		b, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		tr.Ingest(b)
	}
	for i := 0; i < 4; i++ {
		ingest()
	}
	good := st.Load()
	if good == nil || good.Seq != 4 || tr.cuts.patched == 0 {
		t.Fatalf("before the blow-up: version %+v, %d patched cuts", good, tr.cuts.patched)
	}
	ingest() // patches version 3's buffer; version 4 was handed, so no spare after
	ingest() // a full cut
	want := tr.Snapshot(nil)
	patched := tr.cuts.patched
	tr.step = 1e300
	ingest() // patches version 5's buffer
	if tr.cuts.patched != patched+1 {
		t.Fatalf("the diverged cut did not patch (%d patched cuts before, %d after)", patched, tr.cuts.patched)
	}
	if j := model.FirstNonFinite(tr.Snapshot(nil)); j < 0 {
		t.Fatal("the model did not diverge")
	}
	if st.Seq() != 6 || st.Rejects() != 1 {
		t.Fatalf("diverged cut: seq %d, %d rejects; want seq 6 kept and one reject", st.Seq(), st.Rejects())
	}
	for j, w := range st.Load().Weights {
		if w != want[j] {
			t.Fatalf("store serves %g at %d, version 6 was cut with %g", w, j, want[j])
		}
	}
}

// TestPatchedPublishAllocs: once its lists have grown, a block's updates
// and the patched cut after them allocate nothing.
func TestPatchedPublishAllocs(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const dim, bs = 1 << 16, 256
	cfg := streamConfig(dim, false)
	cfg.Workers, cfg.Snapshots = 1, snapshot.NewStore()
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(strings.NewReader(makeSkewedCorpus(4*bs, dim, 0.3, 5, 5)), "a", bs)
	for {
		b, err := r.Next()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		tr.Ingest(b)
	}
	block := func() {
		tr.work(0, bs)
		tr.publish()
	}
	for i := 0; i < 4; i++ {
		block()
	}
	patched := tr.cuts.patched
	if n := testing.AllocsPerRun(50, block); n != 0 {
		t.Fatalf("updates and a patched cut allocate %g objects, want 0", n)
	}
	if tr.cuts.patched != patched+51 {
		t.Fatalf("%d of 51 cuts patched", tr.cuts.patched-patched)
	}
}

// load overwrites the model with w and forgets the recent cuts, so the
// next cut copies the whole model: a write outside the update loop is
// one the trainer's lists do not see.
func (t *Trainer) load(w []float64) {
	t.m.Load(w)
	t.cuts.s1, t.cuts.s2 = 0, 0
}
