package main

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/kernel"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/sampling"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/stream"
	"github.com/isasgd/isasgd/internal/wire32"
	"github.com/isasgd/isasgd/internal/xrand"
)

// The replays below time one layer alone, on one thread, on the
// workload's own rows, weights and dimensions, from outside: the clock
// is around calls into the layer's public functions. Each runs a few
// passes and reports their median.

const (
	replayPasses = 5
	replayRows   = 200000 // draws per kernel pass; enough to leave every cache cold
)

// sink keeps the compiler from discarding a replay's result.
var sink float64

// kern is the part of kernel.Kernel and kernel.Kernel32 the training
// loops call per update.
type kern[V float32 | float64] interface {
	Dot(idx []int32, val []V) float64
	Step(idx []int32, val []V, y, s float64)
	StepClamped(idx []int32, val []V, y, s float64)
}

// replayKernels times the fused step, the dot alone and the clamped step
// (the streaming trainer's path) of the kernel the workload's model kind
// selects, visiting rows in an importance-sampled order as the engine
// does. Bytes per update are computed from array sizes, not counted by
// hardware: per non-zero one index, one value, one weight read for the
// dot and one read and one write for the update.
func replayKernels(r *run, train *dataset.Dataset, kind model.Kind, w []float64) {
	seq := replaySequence(train, r.cfg.seed)
	m := model.New(kind, train.Dim())
	m.Load(w)
	var nnz int64
	for _, i := range seq {
		nnz += train.X.IndPtr[i+1] - train.X.IndPtr[i]
	}
	perRow := float64(nnz) / float64(len(seq))
	if kind.Is32() {
		replayKernel(r, kernel.New32(m, trainObj), train, train.X.EnsureVal32(), seq)
		r.set("kernel.bytes_per_update", perRow*(4+4+3*4), len(seq), "")
	} else {
		replayKernel(r, kernel.New(m, trainObj), train, train.X.Val, seq)
		r.set("kernel.bytes_per_update", perRow*(4+8+3*8), len(seq), "")
	}
	r.set("kernel.step_gbps", r.values["kernel.bytes_per_update"].Value/r.med("kernel.step_ns"), replayPasses,
		"computed bytes over measured time")
}

// replaySequence draws the rows a replay visits from the same alias
// distribution the engine builds.
func replaySequence(train *dataset.Dataset, seed uint64) []int32 {
	n := min(train.N(), replayRows)
	al, err := sampling.NewAlias(objective.Weights(train.X, trainObj))
	if err != nil {
		panic(err) // positive Lipschitz weights cannot fail to normalize
	}
	return sampling.Sequence(al, xrand.New(seed^0x5e9), n)
}

func replayKernel[V float32 | float64](r *run, k kern[V], train *dataset.Dataset, val []V, seq []int32) {
	ptr, idx, y := train.X.IndPtr, train.X.Idx, train.Y
	const s = trainStep * 1e-3 // small enough that replay passes do not wander off the trained weights
	for p := 0; p < replayPasses; p++ {
		sp := r.tr.begin("kernel.step", -1, p)
		t0 := time.Now()
		for _, i := range seq {
			lo, hi := ptr[i], ptr[i+1]
			k.Step(idx[lo:hi], val[lo:hi], y[i], s)
		}
		r.add("kernel.step_ns", float64(time.Since(t0))/float64(len(seq)))
		r.tr.end(sp)

		sp = r.tr.begin("kernel.dot", -1, p)
		t0 = time.Now()
		for _, i := range seq {
			lo, hi := ptr[i], ptr[i+1]
			sink += k.Dot(idx[lo:hi], val[lo:hi])
		}
		r.add("kernel.dot_ns", float64(time.Since(t0))/float64(len(seq)))
		r.tr.end(sp)

		sp = r.tr.begin("kernel.step_clamped", -1, p)
		t0 = time.Now()
		for _, i := range seq {
			lo, hi := ptr[i], ptr[i+1]
			k.StepClamped(idx[lo:hi], val[lo:hi], y[i], s)
		}
		r.add("kernel.step_clamped_ns", float64(time.Since(t0))/float64(len(seq)))
		r.tr.end(sp)
	}
}

// replaySampling times what IS adds to a uniform engine: building the
// alias table once per construction and refilling the sequence per epoch,
// beside the same refill from a uniform sampler.
func replaySampling(r *run, train *dataset.Dataset) {
	l := objective.Weights(train.X, trainObj)
	n := float64(len(l))
	rng := xrand.New(r.cfg.seed ^ 0xa11a5)
	seq := make([]int32, len(l))
	uni := sampling.NewUniform(len(l))
	for p := 0; p < replayPasses; p++ {
		sp := r.tr.begin("sampling.alias_build", -1, p)
		t0 := time.Now()
		al, err := sampling.NewAlias(l)
		r.add("sampling.alias_build_ns_per_row", float64(time.Since(t0))/n)
		r.tr.end(sp)
		if err != nil {
			panic(err)
		}
		sp = r.tr.begin("sampling.sequence", -1, p)
		t0 = time.Now()
		sampling.SequenceInto(seq, al, rng)
		r.add("sampling.sequence_ns_per_draw", float64(time.Since(t0))/n)
		r.tr.end(sp)

		t0 = time.Now()
		sampling.SequenceInto(seq, uni, rng)
		r.add("sampling.uniform_ns_per_draw", float64(time.Since(t0))/n)
	}
}

// replayISState times the streaming importance state at the trainer's
// default reservoir: observing a row, rebuilding the alias table (per
// entry held) and drawing from it.
func replayISState(r *run, train *dataset.Dataset) {
	const capacity = 1 << 14
	l := objective.Weights(train.X, trainObj)
	n := min(len(l), capacity)
	rng := xrand.New(r.cfg.seed ^ 0x15)
	for p := 0; p < replayPasses; p++ {
		st := stream.NewISState(capacity, 0, r.cfg.seed+uint64(p))
		t0 := time.Now()
		for i := 0; i < n; i++ {
			st.Observe(int64(i), l[i])
		}
		r.add("stream.isstate_observe_ns", float64(time.Since(t0))/float64(n))

		t0 = time.Now()
		st.Rebuild()
		r.add("stream.isstate_rebuild_ns_per_entry", float64(time.Since(t0))/float64(st.Len()))

		t0 = time.Now()
		for i := 0; i < n; i++ {
			e, scale, _ := st.Sample(rng)
			sink += float64(e.Ref) * scale
		}
		r.add("stream.isstate_sample_ns", float64(time.Since(t0))/float64(n))
	}
}

// replaySnapshot times the versioned store at the workload's model size:
// a publish (fill is how the producer hands its weights over), a load,
// and how long a blocked Wait takes to return once a version is in.
func replaySnapshot(r *run, dim int, fill func(dst []float64) []float64) {
	st := snapshot.NewStore()
	var installed atomic.Int64 // UnixNano of the latest install
	st.SetOnPublish(func(*snapshot.Version) { installed.Store(time.Now().UnixNano()) })
	st.Publish(0, 0, fill)
	const publishes = 40
	for p := 0; p < publishes; p++ {
		sp := r.tr.begin("snapshot.publish", -1, p)
		t0 := time.Now()
		st.Publish(p+1, int64(p+1), fill)
		d := time.Since(t0)
		r.tr.end(sp)
		r.add("snapshot.publish_us", float64(d)/1e3)
		r.add("snapshot.publish_mb_per_s", float64(dim*8)/(1<<20)/d.Seconds())
	}
	for p := 0; p < publishes; p++ {
		woke := make(chan int64, 1)
		go func(since uint64) {
			st.Wait(context.Background(), since)
			woke <- time.Now().UnixNano()
		}(st.Seq())
		time.Sleep(200 * time.Microsecond) // let the waiter block before the publish
		st.Publish(p+1, int64(p+1), fill)
		r.add("snapshot.wait_wake_us", float64(<-woke-installed.Load())/1e3)
	}
	const loads = 1 << 20
	for p := 0; p < replayPasses; p++ {
		t0 := time.Now()
		for i := 0; i < loads; i++ {
			sink += float64(st.Load().Seq)
		}
		r.add("snapshot.load_ns", float64(time.Since(t0))/loads)
	}
}

// copyFill publishes a copy of w, as Store.PublishCopy does.
func copyFill(w []float64) func(dst []float64) []float64 {
	return func(dst []float64) []float64 {
		if len(dst) != len(w) {
			dst = make([]float64, len(w))
		}
		copy(dst, w)
		return dst
	}
}

// replayWire32 times the float32 wire packing of one weight vector, as
// replication ships an f32-stamped model.
func replayWire32(r *run, w []float64) {
	w32 := make([]float32, len(w))
	for j, v := range w {
		w32[j] = float32(v)
	}
	var buf []byte
	var wide []float64
	n := float64(len(w))
	for p := 0; p < 4*replayPasses; p++ {
		t0 := time.Now()
		buf = wire32.AppendNarrow(buf[:0], w32)
		r.add("wire32.encode_ns_per_elem", float64(time.Since(t0))/n)
		t0 = time.Now()
		wide, _ = wire32.DecodeWide(wide, buf)
		r.add("wire32.decode_ns_per_elem", float64(time.Since(t0))/n)
	}
	sink += wide[0]
}
