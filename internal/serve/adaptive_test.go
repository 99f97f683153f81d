package serve

import (
	"strings"
	"testing"
)

// clusterOnly lists the coordinator's push-level knobs, which a batch or
// stream job refuses with an error that names the cluster: the
// in-process trainers apply every update at full step.
var clusterOnly = map[string]func(*JobSpec){
	"adapt_c":         func(s *JobSpec) { s.AdaptC = 0.1 },
	"staleness_bound": func(s *JobSpec) { s.StalenessBound = 16 },
}

// refusesClusterOnly fails unless each cluster-only knob set on base
// fails to compile with an error naming the knob and the cluster.
func refusesClusterOnly(t *testing.T, base func() JobSpec, bodyFed bool) {
	t.Helper()
	for name, mutate := range clusterOnly {
		spec := base()
		mutate(&spec)
		_, err := compile(spec, bodyFed, "")
		if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "cluster") {
			t.Errorf("%s on kind %q: error %v, want one naming %s and the cluster", name, spec.Kind, err, name)
		}
	}
}

// TestCompileBatchAdaptiveValidation pins the synchronous 400 surface
// for the adaptive knobs on batch jobs: stream-only fields, the
// cluster-only knobs, bad values and unsupported algo combinations must
// all fail at submission, while delay compensation compiles into the
// batch config at either precision.
func TestCompileBatchAdaptiveValidation(t *testing.T) {
	base := func() JobSpec { return JobSpec{Dataset: "small", Algo: "asgd"} }
	bad := map[string]func(*JobSpec){
		"importance on batch": func(s *JobSpec) { s.Importance = "grad" },
		"negative dc_lambda":  func(s *JobSpec) { s.DCLambda = -1 },
		"dc on saga":          func(s *JobSpec) { s.Algo = "saga"; s.DCLambda = 0.1 },
		"dc on svrg":          func(s *JobSpec) { s.Algo = "svrg-asgd"; s.DCLambda = 0.1 },
	}
	for name, mutate := range bad {
		spec := base()
		mutate(&spec)
		if _, err := compile(spec, false, ""); err == nil {
			t.Errorf("%s: spec accepted, want error", name)
		}
	}

	for _, precision := range []string{"", "f32"} {
		spec := base()
		spec.Precision = precision
		spec.DCLambda = 0.02
		r, err := compile(spec, false, "")
		if err != nil {
			t.Fatal(err)
		}
		if r.cfg.DCLambda != 0.02 {
			t.Fatalf("dc_lambda not wired into the batch config: %+v", r.cfg)
		}
	}
	refusesClusterOnly(t, base, false)
}

// TestCompileStreamAdaptiveValidation pins the same surface for
// streaming jobs, including the importance-mode selector; a streaming
// job takes no staleness knob at all.
func TestCompileStreamAdaptiveValidation(t *testing.T) {
	base := func() JobSpec { return JobSpec{Kind: "stream", Dim: 8} }
	bad := map[string]func(*JobSpec){
		"unknown importance": func(s *JobSpec) { s.Importance = "entropy" },
		"grad with uniform":  func(s *JobSpec) { s.Importance = "grad"; s.Algo = "sgd" },
		"loss importance":    func(s *JobSpec) { s.Importance = "loss" },
		"dc_lambda on stream": func(s *JobSpec) {
			s.DCLambda = 0.1
		},
	}
	for name, mutate := range bad {
		spec := base()
		mutate(&spec)
		if _, err := compile(spec, true, ""); err == nil {
			t.Errorf("%s: spec accepted, want error", name)
		}
	}

	for _, precision := range []string{"", "f32"} {
		spec := base()
		spec.Precision = precision
		spec.Importance = "grad"
		r, err := compile(spec, true, "")
		if err != nil {
			t.Fatal(err)
		}
		if r.stream == nil {
			t.Fatal("streaming spec did not compile a stream config")
		}
		if r.stream.Importance != "grad" {
			t.Fatalf("importance not wired into stream config: %+v", r.stream)
		}
	}
	refusesClusterOnly(t, base, true)
}
