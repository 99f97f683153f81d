package main

import (
	"bytes"
	"context"
	"io"
	"time"

	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/stream"
)

const (
	streamBlock     = 1024
	streamEvalEvery = 16 // score the published snapshot every 16th block
)

// streamFixture is batch_sparse's corpus as LibSVM text, one buffer per
// fold, so a rep can stream the nine folds it trains on and score the
// tenth.
type streamFixture struct {
	dim   int
	text  [][]byte
	folds []*dataset.Dataset
	c     *corpus // kept for the traced pass's replays only
}

func newStreamFixture(seed uint64, quick, keep bool) (*streamFixture, error) {
	c, err := newCorpus(batchSparse.synth(quick), seed)
	if err != nil {
		return nil, err
	}
	fx := &streamFixture{dim: c.ds.Dim()}
	if keep {
		fx.c = c
	}
	for f := 0; f < nFolds; f++ {
		lo, hi := c.foldRange(f)
		rows := make([]int, hi-lo)
		for i := range rows {
			rows[i] = lo + i
		}
		fold := c.ds.Reorder(rows)
		var buf bytes.Buffer
		if err := dataset.WriteLibSVM(&buf, fold); err != nil {
			return nil, err
		}
		fx.text = append(fx.text, buf.Bytes())
		fx.folds = append(fx.folds, fold)
	}
	return fx, nil
}

// source is the LibSVM byte stream of every fold but the held-out one.
func (fx *streamFixture) source(rep int) (src io.Reader, size int) {
	var parts []io.Reader
	for f, b := range fx.text {
		if f != rep%nFolds {
			parts = append(parts, bytes.NewReader(b))
			size += len(b)
		}
	}
	return io.MultiReader(parts...), size
}

// streamRep is one pass over the stream: bytes in, snapshots out.
type streamRep struct {
	trainRep
	readerS, ingestS float64 // driven reps only
	blocks           int
	publishes        uint64
	bytes            int
}

// streamPass trains one pass. Parsing, importance state and publishing
// are on the clock by design; scoring the published snapshot is not.
// A driven pass calls Reader.Next and Trainer.Ingest itself, block by
// block, so that each can be timed; otherwise Trainer.Run does, as the
// CLI runs it.
func streamPass(r *run, fx *streamFixture, uniform, driven bool, seed uint64, rep int) (streamRep, error) {
	var (
		out      streamRep
		sw, ing  stopwatch
		hold     = fx.folds[rep%nFolds]
		store    = snapshot.NewStore()
		root     = r.tr.begin("rep", -1, rep)
		ingestSp = -1
		every    = streamEvalEvery
	)
	defer r.tr.end(root)
	if r.cfg.quick {
		every = 1
	}
	src, size := fx.source(rep)
	out.bytes = size
	out.curve = []point{{Err: holdoutErr(hold, make([]float64, fx.dim))}}

	sw.start()
	rd := stream.NewReader(src, "stream_e2e", streamBlock)
	tr, err := stream.NewTrainer(stream.Config{
		Obj: trainObj, Dim: fx.dim, Workers: r.cfg.nproc, Step: trainStep, WindowBlocks: 4,
		Importance: "bound", Uniform: uniform, Snapshots: store, PublishEvery: 1, Seed: seed,
	})
	if err != nil {
		return out, err
	}
	// A piece of the timeline is the stretch between two evaluations: 16
	// blocks read, ingested and published, about a tenth of a second.
	piece := func(updates float64) {
		out.pieceS = append(out.pieceS, sw.seconds()-out.clockS)
		out.pieceU = append(out.pieceU, updates-out.updates)
		out.clockS, out.updates = sw.seconds(), updates
	}
	tr.SetOnBlock(func(bs stream.BlockStats) {
		sw.pause()
		if driven {
			ing.pause()
		}
		if out.blocks++; out.blocks%every == 0 {
			sp := r.tr.begin("eval", ingestSp, rep)
			piece(float64(bs.Updates))
			out.curve = append(out.curve, point{T: sw.seconds(), Updates: float64(bs.Updates), Err: holdoutErr(hold, store.Load().Weights)})
			r.tr.end(sp)
		}
		if driven {
			ing.start()
		}
		sw.start()
	})

	if driven {
		for {
			sp := r.tr.begin("stream.reader", root, rep)
			t0 := time.Now()
			b, err := rd.Next()
			out.readerS += since(t0)
			r.tr.end(sp)
			if err == io.EOF {
				break
			}
			if err != nil {
				return out, err
			}
			ingestSp = r.tr.begin("stream.ingest", root, rep)
			ing.start()
			tr.Ingest(b)
			ing.pause()
			r.tr.end(ingestSp)
		}
		out.weights = tr.Snapshot(nil)
		sw.pause()
		piece(float64(tr.Updates()))
	} else {
		res, err := tr.Run(context.Background(), rd)
		if err != nil {
			return out, err
		}
		sw.pause()
		out.weights = res.Weights
		piece(float64(res.Updates))
	}

	out.ingestS = ing.seconds()
	out.publishes = store.Seq()
	out.finalErr = holdoutErr(hold, out.weights)
	out.curve = append(out.curve, point{T: out.clockS, Updates: out.updates, Err: out.finalErr})
	out.finite = model.FirstNonFinite(out.weights) < 0
	return out, nil
}

func runStream(r *run) error {
	cfg := r.cfg
	fx, err := setUp(r, func() (*streamFixture, error) { return newStreamFixture(cfg.seed, cfg.quick, cfg.trace) }, func(*streamFixture) {})
	if err != nil {
		return err
	}
	if !cfg.trace {
		g := gated{steadyFrom: 1} // the first group builds the trainer and fills the window
		for d, k := newDeadline(cfg.seconds, 3), 0; d.next(); k++ {
			rep, err := streamPass(r, fx, false, false, repSeed(cfg.seed, k), k)
			if err != nil {
				return err
			}
			g.take(r, rep.trainRep, targetStream)
		}
		g.report(r)
		return nil
	}

	tr := newTracer(cfg.workload)
	mem := startMemProbe()
	var drivenClock, plainClock []float64
	var last streamRep
	for d, k := newDeadline(cfg.seconds, 2), 0; d.next(); k++ {
		driven := k%2 == 0
		r.tr = nil
		if driven {
			r.tr = tr
		}
		is, err := streamPass(r, fx, false, driven, repSeed(cfg.seed, k), k)
		if err != nil {
			return err
		}
		uni, err := streamPass(r, fx, true, false, repSeed(cfg.seed, k), k)
		if err != nil {
			return err
		}
		isU, isOK := r.score(is.trainRep, targetStream)
		if _, uniU, ok := crossing(uni.curve, targetStream); ok && isOK && isU > 0 && !cfg.quick {
			r.add("is_update_gain", uniU/isU)
		}
		if !driven {
			plainClock = append(plainClock, is.clockS)
			continue
		}
		drivenClock = append(drivenClock, is.clockS)
		r.add("stream.reader_s", is.readerS)
		r.add("stream.reader_mb_per_s", float64(is.bytes)/(1<<20)/is.readerS)
		r.add("stream.ingest_s", is.ingestS)
		r.add("stream.ingest_ns_per_update", is.ingestS*1e9/is.updates)
		r.add("stream.residual_share", 1-(is.readerS+is.ingestS)/is.clockS)
		r.add("stream.isstate_rebuilds", float64(is.blocks*cfg.nproc))
		r.add("snapshot.publishes", float64(is.publishes))
		last = is
	}
	r.tr = tr
	mem.report(r)
	r.traceOverhead(drivenClock, plainClock, "median clock of reps driven by Trainer.Run, untraced")

	// The reader alone, for what it allocates per row.
	src, _ := fx.source(0)
	probe := startMemProbe()
	rd := stream.NewReader(src, "stream_e2e", streamBlock)
	for {
		if _, err := rd.Next(); err != nil {
			break
		}
	}
	readerAlloc, _ := probe.delta()
	r.set("stream.reader_alloc_b_per_row", readerAlloc/float64(rd.Rows()), int(rd.Rows()), "")

	train, _ := fx.c.split(0)
	replayKernels(r, train, model.KindAtomic, last.weights)
	replayISState(r, train)
	m := model.New(model.KindAtomic, fx.dim)
	m.Load(last.weights)
	replaySnapshot(r, fx.dim, m.Snapshot)

	// Where the clock goes. Reader and ingest are measured; the parts of
	// ingest are the replays' unit costs times the counts of the pass,
	// divided by the workers where the trainer runs them in parallel.
	var (
		clock   = median(drivenClock)
		workers = float64(cfg.nproc)
		rows    = last.updates // one update per row ingested
		entries = float64(min(4*streamBlock/cfg.nproc, 1<<14))
		isstate = (r.med("stream.isstate_observe_ns")*rows +
			r.med("stream.isstate_rebuild_ns_per_entry")*entries*float64(last.blocks*cfg.nproc) +
			r.med("stream.isstate_sample_ns")*last.updates/workers) / 1e9
		kernelS  = r.med("kernel.step_clamped_ns") * last.updates / workers / 1e9
		publishS = r.med("snapshot.publish_us") * float64(last.publishes) / 1e6
	)
	r.res.Shares = map[string]float64{
		"stream.reader":        r.med("stream.reader_s") / clock,
		"stream.isstate":       isstate / clock,
		"snapshot":             publishS / clock,
		"kernel":               kernelS / clock,
		"stream.ingest (rest)": (r.med("stream.ingest_s") - isstate - kernelS - publishS) / clock,
		"residual":             r.med("stream.residual_share"),
	}
	r.note("layer_shares are of the driven rep's clock (%.2f s); reader and ingest are measured, ingest's parts are replay unit costs times the pass's counts", clock)
	return nil
}
