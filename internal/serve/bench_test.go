package serve

import (
	"fmt"
	"sync"
	"testing"

	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/xrand"
)

// Registry microbenchmarks. End-to-end serving numbers (replicate,
// resolve, score, encode under zipf traffic) come from the serve_fleet
// workload of `bash bench/run.sh` (see bench/README.md).

// The serving-benchmark workload shape: single-instance requests of
// servingBenchNNZ features against a model of servingBenchDim
// coordinates — a modest feature count per request (the typical
// online-inference case), so the measurement is dominated by the
// registry machinery rather than the dot product.
const (
	servingBenchDim = 1 << 16
	servingBenchNNZ = 8
)

// benchInstance synthesizes one serving-shaped sparse instance.
func benchInstance(dim, nnz int, seed uint64) Instance {
	rng := xrand.New(seed)
	in := Instance{Indices: make([]int, nnz), Values: make([]float64, nnz)}
	for k := 0; k < nnz; k++ {
		in.Indices[k] = rng.Intn(dim)
		in.Values[k] = rng.NormFloat64()
	}
	return in
}

func benchWeights(dim int, seed uint64) []float64 {
	rng := xrand.New(seed)
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return w
}

// BenchmarkRegistryPredict measures the copy-on-write registry's
// predict path (atomic map + version load, pooled response) at 1, 4 and
// 16 concurrent requester goroutines.
func BenchmarkRegistryPredict(b *testing.B) {
	w := benchWeights(servingBenchDim, 11)
	batch := []Instance{benchInstance(servingBenchDim, servingBenchNNZ, 7)}

	reg := NewRegistry()
	if err := reg.Publish(&Model{Name: "m", Store: snapshot.Of(1, 1, w)}); err != nil {
		b.Fatal(err)
	}
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("cow/goroutines=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			// Distribute exactly b.N ops across the g goroutines (the
			// remainder goes to the first b.N%g) so ns/op and allocs/op
			// divide by the true op count.
			per, rem := b.N/g, b.N%g
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := 0; i < g; i++ {
				n := per
				if i < rem {
					n++
				}
				if n == 0 {
					continue
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for j := 0; j < n; j++ {
						resp, err := reg.Predict("m", batch)
						if err != nil {
							b.Error(err)
							return
						}
						resp.Release()
					}
				}(n)
			}
			wg.Wait()
		})
	}
}
