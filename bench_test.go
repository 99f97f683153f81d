// Throughput, kernel and evaluation microbenchmarks. The paper's tables
// and figures are counts, not timings: cmd/isasgd-bench prints them and
// internal/experiments' report golden pins them. End-to-end performance
// numbers come from `bash bench/run.sh` (see bench/README.md).
package isasgd_test

import (
	"context"
	"testing"

	isasgd "github.com/isasgd/isasgd"
	"github.com/isasgd/isasgd/internal/kernel"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/xrand"
)

// benchThroughput measures raw update throughput of one algorithm at a
// given concurrency, in updates per second.
func benchThroughput(b *testing.B, algo isasgd.Algo, threads int) {
	b.Helper()
	ds, err := isasgd.Synthesize(isasgd.KDDALike(0.05, 3))
	if err != nil {
		b.Fatal(err)
	}
	obj := isasgd.LogisticL1(1e-4)
	b.ResetTimer()
	var iters int64
	for i := 0; i < b.N; i++ {
		res, err := isasgd.Train(context.Background(), ds, obj, isasgd.Config{
			Algo: algo, Epochs: 2, Step: 0.1, Threads: threads, Seed: 7,
			EvalEvery: 1 << 30, // effectively final-only: isolate update cost
		})
		if err != nil {
			b.Fatal(err)
		}
		iters += res.Iters
	}
	b.ReportMetric(float64(iters)/b.Elapsed().Seconds(), "updates/s")
}

// Raw Hogwild throughput: the paper's Section-4.2 claim is that IS adds
// at most a few percent over ASGD at equal thread count.
func BenchmarkThroughputASGD1(b *testing.B)    { benchThroughput(b, isasgd.ASGD, 1) }
func BenchmarkThroughputASGD8(b *testing.B)    { benchThroughput(b, isasgd.ASGD, 8) }
func BenchmarkThroughputASGD16(b *testing.B)   { benchThroughput(b, isasgd.ASGD, 16) }
func BenchmarkThroughputISASGD1(b *testing.B)  { benchThroughput(b, isasgd.ISASGD, 1) }
func BenchmarkThroughputISASGD8(b *testing.B)  { benchThroughput(b, isasgd.ISASGD, 8) }
func BenchmarkThroughputISASGD16(b *testing.B) { benchThroughput(b, isasgd.ISASGD, 16) }

// BenchmarkSVRGEpochCost compares the wall-clock of one sparse SVRG-SGD
// epoch with one IS-SGD epoch on d ≫ nnz data. The sparse form pays its
// O(d) work (the µ·D shift) once per epoch, not once per update as the
// strict form's dense µ did.
func BenchmarkSVRGEpochCost(b *testing.B) {
	cfg := isasgd.SmallConfig(9)
	cfg.N, cfg.Dim = 400, 20000 // d ≫ nnz: the regime of the paper's Table 1
	ds, err := isasgd.Synthesize(cfg)
	if err != nil {
		b.Fatal(err)
	}
	obj := isasgd.LogisticL1(1e-4)
	var svrgT, isT float64
	for i := 0; i < b.N; i++ {
		rs, err := isasgd.Train(context.Background(), ds, obj, isasgd.Config{
			Algo: isasgd.SVRGSGD, Epochs: 1, Step: 0.05, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		ri, err := isasgd.Train(context.Background(), ds, obj, isasgd.Config{
			Algo: isasgd.ISSGD, Epochs: 1, Step: 0.05, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		svrgT += rs.TrainTime.Seconds()
		isT += ri.TrainTime.Seconds()
	}
	if isT > 0 {
		b.ReportMetric(svrgT/isT, "svrg/is-epoch-cost")
	}
}

// ---- Kernel-level benchmarks (internal/kernel) -------------------------
//
// BenchmarkKernel* isolate the per-update cost of the devirtualized
// kernels against the Reference kernel, which reproduces the seed's
// interface-dispatch loop exactly (model.Params.Dot + per-coordinate
// Add/Get + Regularizer.DerivAt). Run
//
//	go test -bench 'BenchmarkKernelStep' -benchmem .
//
// and compare the Racy*/Ref pairs.

// The kernel-benchmark workload shape: sparse rows of kernelBenchNNZ
// support over a model sized to defeat the L2 cache.
const (
	kernelBenchRows = 512
	kernelBenchDim  = 1 << 16
	kernelBenchNNZ  = 64
)

// kernelWorkload is the synthesized benchmark input (see the
// kernelBench* constants).
type kernelWorkload struct {
	idx [][]int32
	val [][]float64
	y   []float64
}

func newKernelWorkload(seed uint64) *kernelWorkload {
	rng := xrand.New(seed)
	w := &kernelWorkload{
		idx: make([][]int32, kernelBenchRows),
		val: make([][]float64, kernelBenchRows),
		y:   make([]float64, kernelBenchRows),
	}
	for i := range w.idx {
		w.idx[i] = make([]int32, kernelBenchNNZ)
		w.val[i] = make([]float64, kernelBenchNNZ)
		for k := range w.idx[i] {
			w.idx[i][k] = int32(rng.Intn(kernelBenchDim))
			w.val[i][k] = rng.NormFloat64()
		}
		w.y[i] = float64(1 - 2*(i%2))
	}
	return w
}

// benchKernelStep measures the fused scalar update (one Step per op).
func benchKernelStep(b *testing.B, k kernel.Kernel) {
	b.Helper()
	wl := newKernelWorkload(0xfeed)
	rows := len(wl.idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % rows
		k.Step(wl.idx[r], wl.val[r], wl.y[r], 1e-4)
	}
}

var (
	benchObjL1 = objective.LogisticL1{Eta: 1e-4}
	benchObjL2 = objective.LeastSquaresL2{Eta: 1e-4}
)

// Specialized vs reference, Racy (the paper's true-Hogwild storage).
func BenchmarkKernelStepRacyL1(b *testing.B) {
	benchKernelStep(b, kernel.New(model.NewRacy(kernelBenchDim), benchObjL1))
}
func BenchmarkKernelStepRacyL1Ref(b *testing.B) {
	benchKernelStep(b, kernel.NewReference(model.NewRacy(kernelBenchDim), benchObjL1))
}
func BenchmarkKernelStepRacyL2(b *testing.B) {
	benchKernelStep(b, kernel.New(model.NewRacy(kernelBenchDim), benchObjL2))
}
func BenchmarkKernelStepRacyL2Ref(b *testing.B) {
	benchKernelStep(b, kernel.NewReference(model.NewRacy(kernelBenchDim), benchObjL2))
}

// Specialized vs reference, Atomic (the race-free CAS storage).
func BenchmarkKernelStepAtomicL1(b *testing.B) {
	benchKernelStep(b, kernel.New(model.NewAtomic(kernelBenchDim), benchObjL1))
}
func BenchmarkKernelStepAtomicL1Ref(b *testing.B) {
	benchKernelStep(b, kernel.NewReference(model.NewAtomic(kernelBenchDim), benchObjL1))
}

// BenchmarkEvaluate measures the parallel metric evaluation pass.
func BenchmarkEvaluate(b *testing.B) {
	ds, err := isasgd.Synthesize(isasgd.KDDBLike(0.1, 3))
	if err != nil {
		b.Fatal(err)
	}
	obj := isasgd.LogisticL1(1e-4)
	w := make([]float64, ds.Dim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = metrics.Evaluate(ds, obj, w, 0)
	}
}

// BenchmarkTrainEndToEnd measures a complete IS-ASGD training run
// (including per-epoch evaluation) at quick scale.
func BenchmarkTrainEndToEnd(b *testing.B) {
	ds, err := isasgd.Synthesize(isasgd.News20Like(0.1, 3))
	if err != nil {
		b.Fatal(err)
	}
	obj := isasgd.LogisticL1(1e-4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := isasgd.Train(context.Background(), ds, obj, isasgd.Config{
			Algo: isasgd.ISASGD, Epochs: 5, Step: 0.5, Threads: 8, Seed: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
