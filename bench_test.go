// Benchmarks regenerating the paper's tables and figures (one bench per
// artifact) plus kernel-level throughput microbenchmarks. Experiment
// benches run at "quick" scale so `go test -bench=. -benchmem` completes
// in minutes; use cmd/isasgd-bench for the full-scale reports. End-to-end
// performance numbers come from `bash bench/run.sh` (see bench/README.md).
package isasgd_test

import (
	"context"
	"io"
	"testing"

	isasgd "github.com/isasgd/isasgd"
	"github.com/isasgd/isasgd/internal/experiments"
	"github.com/isasgd/isasgd/internal/kernel"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/solver"
	"github.com/isasgd/isasgd/internal/xrand"
)

func quickRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	return experiments.NewRunner(io.Discard, experiments.Quick(), 1)
}

// BenchmarkTable1 regenerates the dataset-statistics table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		if _, err := r.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1SparseVsDense regenerates the Figure-1 cost comparison
// and reports the dense/sparse cost ratio at the largest dimension.
func BenchmarkFig1SparseVsDense(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		res, err := r.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Points[len(res.Points)-1].Ratio
	}
	b.ReportMetric(ratio, "dense/sparse-ratio")
}

// BenchmarkFig2Balancing regenerates the Section-2.3 worked example.
func BenchmarkFig2Balancing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		if _, err := r.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchConvPanel runs one dataset's Figure-3/4/5 panel (training sweep +
// all three renderings) and reports the mean IS-ASGD speedup over ASGD.
func benchConvPanel(b *testing.B, preset string, withSVRG bool) {
	b.Helper()
	var mean float64
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		cr, err := r.Convergence(context.Background(), preset, withSVRG)
		if err != nil {
			b.Fatal(err)
		}
		r.RenderIterative(cr) // Figure 3 view
		r.RenderAbsolute(cr)  // Figure 4 view
		sums := r.RenderSpeedups(cr)
		total, n := 0.0, 0
		for _, s := range sums {
			if s.MeanOverASGD > 0 {
				total += s.MeanOverASGD
				n++
			}
		}
		if n > 0 {
			mean = total / float64(n)
		}
	}
	b.ReportMetric(mean, "mean-speedup-vs-asgd")
}

// Benchmarks for the four panels of Figures 3, 4 and 5 (sub-figures a–d:
// News20, KDD-Algebra, URL, KDD-Bridge). SVRG-ASGD participates only in
// the News20 panel, as in the paper.
func BenchmarkFig345aNews20(b *testing.B) { benchConvPanel(b, "news20s", true) }

// BenchmarkFig345bKDDAlgebra is panel (b).
func BenchmarkFig345bKDDAlgebra(b *testing.B) { benchConvPanel(b, "kddas", false) }

// BenchmarkFig345cURL is panel (c).
func BenchmarkFig345cURL(b *testing.B) { benchConvPanel(b, "urls", false) }

// BenchmarkFig345dKDDBridge is panel (d).
func BenchmarkFig345dKDDBridge(b *testing.B) { benchConvPanel(b, "kddbs", false) }

// BenchmarkTheory evaluates the Section-3 bound table.
func BenchmarkTheory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		if _, err := r.Theory(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBalancing compares shard-preparation modes.
func BenchmarkAblationBalancing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		if _, err := r.AblationBalancing(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSVRGSkipMu compares strict SVRG with the public-code
// approximation and reports their maximum RMSE divergence.
func BenchmarkAblationSVRGSkipMu(b *testing.B) {
	var diff float64
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		res, err := r.AblationSVRGSkipMu(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		diff = res.MaxDiff
	}
	b.ReportMetric(diff, "max-rmse-divergence")
}

// BenchmarkAblationModelKind compares atomic CAS with racy Hogwild
// model storage.
func BenchmarkAblationModelKind(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		if _, err := r.AblationModelKind(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSequence compares per-epoch sequence regeneration
// with the paper's shuffle-once approximation and reports the final
// RMSE gap the approximation costs.
func BenchmarkAblationSequence(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		res, err := r.AblationSequence(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		gap = res.FinalGap
	}
	b.ReportMetric(gap, "final-rmse-gap")
}

// BenchmarkOverheadIS measures the IS setup cost fraction (Sec. 4.2).
func BenchmarkOverheadIS(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		res, err := r.OverheadIS(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		frac = res.Fraction
	}
	b.ReportMetric(100*frac, "setup-%")
}

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

// BenchmarkSVRGEpochCost shows the dense-µ blowup directly: wall-clock
// of one strict SVRG-SGD epoch vs one IS-SGD epoch on the same data.
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
		if _, err := solver.Train(context.Background(), ds, obj, solver.Config{
			Algo: solver.ISASGD, Epochs: 5, Step: 0.5, Threads: 8, Seed: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
