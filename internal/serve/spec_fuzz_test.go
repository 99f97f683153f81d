package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/isasgd/isasgd/internal/cluster"
	"github.com/isasgd/isasgd/internal/core"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/sparse"
	"github.com/isasgd/isasgd/internal/spec"
	"github.com/isasgd/isasgd/internal/stream"
)

// FuzzJobSpec decodes bytes as a JSON job spec, the way POST /v1/jobs
// does, and compiles it for both submission paths. Oracle: compile
// answers an error, or configs every library constructor accepts —
// core.Train's validation, stream.NewTrainer, and, for the same spec
// read as a cluster run, cluster.NewWorker and cluster.NewCoordinator.
// So the one validator is complete: nothing it passes fails later. A
// batch or stream job that sets adapt_c or staleness_bound never
// compiles: they are the coordinator's push-level knobs, and neither
// core.Config nor stream.Config has a field that could carry them.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"dataset":"small"}`,
		`{"dataset":"small","staleness_bound":-1}`,
		`{"dataset":"small","threads":1048576}`,
		`{"dataset":"small","dim":8,"block_size":64}`,
		`{"kind":"stream","path":"c.libsvm","dim":8,"dc_lambda":0.1}`,
		`{"kind":"stream","path":"c.libsvm","dim":8,"algo":"sgd","importance":"grad"}`,
		`{"kind":"stream","path":"c.libsvm","dim":268435456,"precision":"f32","adapt_c":0.5}`,
		`{"dataset":"small","algo":"bogus"}`,
		`{"dataset":"small","objective":"bogus"}`,
		`{"dataset":"small","balance":"bogus"}`,
		`{"dataset":"bogus"}`,
		`{"dataset":"news20","scale":0.01,"algo":"svrg-asgd","precision":"f32"}`,
		`{"dataset":"small","step":1e309}`,
		`{"dataset":"small","step":1e308,"step_decay":1e-300,"eta":1e300}`,
		`{"dataset":"small","batch":8}`,
		`{"data":"1 1:1\n-1 2:1\n","algo":"saga","staleness_bound":4}`,
		`{"dataset":"small","algo":"asgd","adapt_c":0.1,"staleness_bound":8}`,
		`{"kind":"stream","path":"c.libsvm","dim":8,"adapt_c":0.1,"staleness_bound":8}`,
	} {
		f.Add([]byte(seed))
	}
	root := f.TempDir()
	if err := os.WriteFile(filepath.Join(root, "c.libsvm"), []byte("1 1:1\n"), 0o644); err != nil {
		f.Fatal(err)
	}
	tiny, err := dataset.FromRows("tiny", 8, []sparse.Vector{
		{Idx: []int32{0, 3}, Val: []float64{1, -1}},
		{Idx: []int32{1}, Val: []float64{1}},
		{Idx: []int32{2, 7}, Val: []float64{0.5, 2}},
		{Idx: []int32{4}, Val: []float64{-1}},
	}, []float64{1, -1, 1, -1})
	if err != nil {
		f.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	f.Fuzz(func(t *testing.T, body []byte) {
		var s JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&s) != nil {
			return
		}
		for _, bodyFed := range []bool{false, true} {
			r, err := compile(s, bodyFed, root)
			if err != nil {
				continue
			}
			if s.AdaptC != 0 || s.StalenessBound != 0 {
				t.Fatalf("compiled %s, which sets a cluster-only knob", body)
			}
			if r.stream != nil {
				c := *r.stream
				c.Dim = min(c.Dim, 64) // the model's size is not a rule
				if _, err := stream.NewTrainer(c); err != nil {
					t.Fatalf("compiled %s, but stream.NewTrainer refused it: %v", body, err)
				}
				continue
			}
			// A cancelled run validates, builds and stops before epoch 1.
			if _, err := core.Train(cancelled, tiny, r.obj, r.cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("compiled %s, but core.Train refused it: %v", body, err)
			}
		}

		s.Kind = spec.KindCluster
		s.Defaults(spec.Cluster)
		if s.Validate() != nil {
			return
		}
		w := cluster.WorkerFromSpec(s, tiny)
		w.Workers, w.Coordinator = 1, "http://127.0.0.1:1"
		if _, err := cluster.NewWorker(w); err != nil {
			t.Fatalf("validated %s as a cluster run, but cluster.NewWorker refused it: %v", body, err)
		}
		if _, err := cluster.NewCoordinator(cluster.CoordinatorFromSpec(s, tiny)); err != nil {
			t.Fatalf("validated %s as a cluster run, but cluster.NewCoordinator refused it: %v", body, err)
		}
	})
}
