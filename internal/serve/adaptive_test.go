package serve

import (
	"math"
	"testing"
)

// TestCompileBatchAdaptiveValidation pins the synchronous 400 surface
// for the adaptive knobs on batch jobs: stream-only fields, bad values
// and unsupported algo combinations must all fail at submission,
// while valid policies compile into the batch config at either
// precision.
func TestCompileBatchAdaptiveValidation(t *testing.T) {
	base := func() JobSpec { return JobSpec{Dataset: "small", Algo: "asgd"} }
	bad := map[string]func(*JobSpec){
		"importance on batch": func(s *JobSpec) { s.Importance = "grad" },
		"NaN adapt_c":         func(s *JobSpec) { s.AdaptC = math.NaN() },
		"negative dc_lambda":  func(s *JobSpec) { s.DCLambda = -1 },
		"negative bound":      func(s *JobSpec) { s.StalenessBound = -4 },
		"adaptive on saga":    func(s *JobSpec) { s.Algo = "saga"; s.AdaptC = 0.1 },
		"adaptive on svrg":    func(s *JobSpec) { s.Algo = "svrg-asgd"; s.StalenessBound = 16 },
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
		spec.AdaptC = 0.05
		spec.StalenessBound = 64
		spec.DCLambda = 0.02
		r, err := compile(spec, false, "")
		if err != nil {
			t.Fatal(err)
		}
		if r.cfg.AdaptC != 0.05 || r.cfg.StalenessBound != 64 || r.cfg.DCLambda != 0.02 {
			t.Fatalf("adaptive knobs not wired into the batch config: %+v", r.cfg)
		}
	}
}

// TestCompileStreamAdaptiveValidation pins the same surface for
// streaming jobs, including the importance-mode selector.
func TestCompileStreamAdaptiveValidation(t *testing.T) {
	base := func() JobSpec { return JobSpec{Kind: "stream", Dim: 8} }
	bad := map[string]func(*JobSpec){
		"unknown importance": func(s *JobSpec) { s.Importance = "entropy" },
		"grad with uniform":  func(s *JobSpec) { s.Importance = "grad"; s.Algo = "sgd" },
		"loss importance":    func(s *JobSpec) { s.Importance = "loss" },
		"dc_lambda on stream": func(s *JobSpec) {
			s.DCLambda = 0.1
		},
		"negative bound": func(s *JobSpec) { s.StalenessBound = -1 },
		"Inf adapt_c":    func(s *JobSpec) { s.AdaptC = math.Inf(1) },
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
		spec.AdaptC = 0.1
		spec.StalenessBound = 32
		r, err := compile(spec, true, "")
		if err != nil {
			t.Fatal(err)
		}
		if r.stream == nil {
			t.Fatal("streaming spec did not compile a stream config")
		}
		if r.stream.Importance != "grad" ||
			r.stream.AdaptC != 0.1 || r.stream.StalenessBound != 32 {
			t.Fatalf("adaptive knobs not wired into stream config: %+v", r.stream)
		}
	}
}
