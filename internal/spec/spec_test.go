package spec

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// flagged parses args on a fresh flag set of the surface and sets kind.
func flagged(t *testing.T, surface Surface, kind string, args ...string) Spec {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var s Spec
	s.Flags(fs, surface)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s.SetKind(kind, fs)
	return s
}

// TestSurfaceDefaults pins each surface's defaults to the values the
// surfaces had before they shared one spec: serve fills only what its
// compile filled (the library defaults the rest), isasgd-train trains
// 15 epochs on GOMAXPROCS threads, isasgd-cluster evaluates every 4
// pushes on 1 thread with a staleness bound of 64.
func TestSurfaceDefaults(t *testing.T) {
	serve := func(kind string) Spec {
		s := Spec{Kind: kind}
		s.Defaults(Serve)
		return s
	}
	for name, c := range map[string]struct{ got, want Spec }{
		"serve batch": {serve(""), Spec{Dataset: "", Scale: 1, Algo: "is-asgd", Objective: "logistic-l1",
			Eta: 1e-4, Epochs: 10, Step: 0.5}},
		"serve stream": {serve(KindStream), Spec{Kind: KindStream, Algo: "is-asgd", Objective: "logistic-l1",
			Eta: 1e-4, Step: 0.5}},
		"train batch": {flagged(t, Train, KindBatch), Spec{Kind: KindBatch, Algo: "is-asgd", Objective: "logistic-l1",
			Precision: "f64", Eta: 1e-4, Epochs: 15, Step: 0.5, StepDecay: 1, Threads: runtime.GOMAXPROCS(0),
			Seed: 1}},
		"train stream": {flagged(t, Train, KindStream), Spec{Kind: KindStream, Algo: "is-asgd", Objective: "logistic-l1",
			Precision: "f64", Eta: 1e-4, Step: 0.5, StepDecay: 1, Threads: runtime.GOMAXPROCS(0),
			Seed: 1}},
		"cluster": {flagged(t, Cluster, KindCluster), Spec{Kind: KindCluster, Dataset: "small", Scale: 1,
			StalenessBound: 64, Objective: "logistic-l1", Eta: 1e-4, Step: 0.5, StepDecay: 1, Threads: 1,
			Seed: 1, EvalEvery: 4}},
	} {
		if c.got != c.want {
			t.Errorf("%s defaults:\n got %+v\nwant %+v", name, c.got, c.want)
		}
		if err := c.got.Validate(); err != nil && c.want.Kind != KindStream { // a stream needs its dim
			t.Errorf("%s defaults invalid: %v", name, err)
		}
	}
}

// TestFlagSets pins which knobs each binary has: no surface gains a
// knob, and every flag name is the JSON name with '_' → '-'.
func TestFlagSets(t *testing.T) {
	want := map[Surface]string{
		Train: "algo block-size dc-lambda dim epochs eta importance objective " +
			"precision rebuild-every reservoir seed step step-decay threads updates-per-block window-blocks",
		Cluster: "adapt-c dataset dc-lambda eta eval-every objective scale seed staleness-bound " +
			"step step-decay threads",
	}
	for surface, names := range want {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		var s Spec
		s.Flags(fs, surface)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if strings.Join(got, " ") != names {
			t.Errorf("surface %d flags:\n got %s\nwant %s", surface, strings.Join(got, " "), names)
		}
	}
}

// TestKnobTableMatchesSpec checks that every JSON field of Spec but
// model and kind is a knob of the table under its JSON name, and every
// knob a field.
func TestKnobTableMatchesSpec(t *testing.T) {
	byName := map[string]knob{}
	for _, k := range knobs {
		byName[k.name] = k
	}
	rt := reflect.TypeOf(Spec{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name := strings.TrimSuffix(f.Tag.Get("json"), ",omitempty")
		if name == "model" || name == "kind" {
			continue
		}
		if _, ok := byName[name]; !ok {
			t.Errorf("field %s (%s) has no knob", f.Name, name)
		}
		delete(byName, name)
	}
	for name := range byName {
		t.Errorf("knob %s has no Spec field", name)
	}
}

// TestValidate pins the rules: every row breaks exactly one.
func TestValidate(t *testing.T) {
	batch := func(mut func(*Spec)) Spec {
		s := Spec{Dataset: "small"}
		s.Defaults(Serve)
		mut(&s)
		return s
	}
	stream := func(mut func(*Spec)) Spec {
		s := Spec{Kind: KindStream, Dim: 8}
		s.Defaults(Serve)
		mut(&s)
		return s
	}
	star := flagged(t, Cluster, KindCluster)
	cluster := func(mut func(*Spec)) Spec {
		s := star
		mut(&s)
		return s
	}
	ok := []Spec{
		batch(func(*Spec) {}),
		batch(func(s *Spec) { s.Dataset = "news20"; s.Scale = 0.5 }),
		batch(func(s *Spec) { s.Algo = "SVRG_ASGD" }),
		batch(func(s *Spec) {
			s.Algo = "asgd"
			s.Precision = "f32"
			s.DCLambda = 0.1
		}),
		stream(func(s *Spec) { s.Algo = "is-sgd"; s.Importance = "grad" }),
		cluster(func(s *Spec) { s.StalenessBound = -1 }),
		cluster(func(s *Spec) { s.AdaptC = 0.1; s.DCLambda = 0.1 }),
		cluster(func(s *Spec) { s.Dataset = "kdda"; s.Scale = 0.1 }),
	}
	for i, s := range ok {
		if err := s.Validate(); err != nil {
			t.Errorf("ok %d (%+v): %v", i, s, err)
		}
	}
	bad := map[string]Spec{
		"unknown kind":          batch(func(s *Spec) { s.Kind = "bogus" }),
		"unknown algo":          batch(func(s *Spec) { s.Algo = "bogus" }),
		"unknown objective":     batch(func(s *Spec) { s.Objective = "bogus" }),
		"unknown precision":     batch(func(s *Spec) { s.Precision = "f16" }),
		"unknown preset":        batch(func(s *Spec) { s.Dataset = "bogus" }),
		"unknown importance":    stream(func(s *Spec) { s.Importance = "bogus" }),
		"dataset and data":      batch(func(s *Spec) { s.Data = "1 1:1\n" }),
		"scale above 1":         batch(func(s *Spec) { s.Scale = 1.5 }),
		"NaN step":              batch(func(s *Spec) { s.Step = math.NaN() }),
		"+Inf step":             batch(func(s *Spec) { s.Step = math.Inf(1) }),
		"zero step":             batch(func(s *Spec) { s.Step = 0 }),
		"NaN step_decay":        batch(func(s *Spec) { s.StepDecay = math.NaN() }),
		"step_decay above 1":    batch(func(s *Spec) { s.StepDecay = 1.5 }),
		"NaN eta":               batch(func(s *Spec) { s.Eta = math.NaN() }),
		"negative eta":          batch(func(s *Spec) { s.Eta = -1 }),
		"NaN adapt_c":           cluster(func(s *Spec) { s.AdaptC = math.NaN() }),
		"negative dc_lambda":    cluster(func(s *Spec) { s.DCLambda = -1 }),
		"bound below -1":        cluster(func(s *Spec) { s.StalenessBound = -2 }),
		"zero epochs":           batch(func(s *Spec) { s.Epochs = 0 }),
		"negative threads":      batch(func(s *Spec) { s.Threads = -1 }),
		"negative eval_every":   batch(func(s *Spec) { s.EvalEvery = -1 }),
		"stream without dim":    stream(func(s *Spec) { s.Dim = 0 }),
		"negative reservoir":    stream(func(s *Spec) { s.Reservoir = -1 }),
		"stream knob on batch":  batch(func(s *Spec) { s.Dim = 8 }),
		"epochs on stream":      stream(func(s *Spec) { s.Epochs = 3 }),
		"dc_lambda on stream":   stream(func(s *Spec) { s.DCLambda = 0.1 }),
		"algo on cluster":       cluster(func(s *Spec) { s.Algo = "is-asgd" }),
		"svrg on stream":        stream(func(s *Spec) { s.Algo = "svrg-sgd" }),
		"f32 saga":              batch(func(s *Spec) { s.Algo = "saga"; s.Precision = "f32" }),
		"dc svrg":               batch(func(s *Spec) { s.Algo = "svrg-asgd"; s.DCLambda = 0.1 }),
		"grad importance asgd":  stream(func(s *Spec) { s.Algo = "asgd"; s.Importance = "grad" }),
		"grad importance batch": batch(func(s *Spec) { s.Importance = "grad" }),
		"loss importance":       stream(func(s *Spec) { s.Importance = "loss" }),
	}
	for name, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The coordinator's push-level knobs: a batch or stream run refuses
	// them with an error that names the cluster.
	for name, s := range map[string]Spec{
		"adapt_c":         batch(func(s *Spec) { s.AdaptC = 0.1 }),
		"staleness_bound": stream(func(s *Spec) { s.StalenessBound = 8 }),
	} {
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), KindCluster) {
			t.Errorf("%s on kind %s: err %v, want one naming it and the cluster", name, s.Kind, err)
		}
	}
}

// TestCheckExhaustive walks the whole capability table: algo × kind ×
// delay compensation × importance. The rows it accepts are exactly the
// plain algorithms' combinations, plus SVRG as batch runs without DC;
// grad importance needs a weighted sampler; no other verdict exists.
func TestCheckExhaustive(t *testing.T) {
	for _, a := range algos {
		for _, kind := range []string{KindBatch, KindStream} {
			for _, dc := range []bool{false, true} {
				for _, imp := range []string{"", "bound", "grad"} {
					want := (a.Plain || (kind == KindBatch && !dc)) &&
						(imp != "grad" || a.Weighted)
					err := Check(a.Name, kind, dc, imp)
					if (err == nil) != want {
						t.Errorf("%s/%s/dc=%v/importance=%q: err %v, want ok=%v",
							a.Name, kind, dc, imp, err, want)
					}
				}
			}
		}
	}
	if err := Check("is-asgd", KindStream, false, "loss"); err == nil ||
		!strings.Contains(err.Error(), "bound") || !strings.Contains(err.Error(), "grad") {
		t.Errorf("importance loss: err %v, want one naming bound and grad", err)
	}
	for _, name := range []string{"bogus", "saga"} {
		err := Check(name, KindBatch, false, "")
		if err == nil || !strings.Contains(err.Error(), "sgd, is-sgd, asgd, is-asgd, svrg-sgd, svrg-asgd") {
			t.Errorf("algo %s: err %v, want one naming the valid algos", name, err)
		}
	}
}

// TestJSONNames keeps the HTTP API's field names: a spec round-trips
// through the JSON names of the knob table.
func TestJSONNames(t *testing.T) {
	b, err := json.Marshal(Spec{Model: "m", Kind: "stream", BlockSize: 3, StalenessBound: 2, StepDecay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b); got != `{"model":"m","kind":"stream","block_size":3,"staleness_bound":2,"step_decay":0.5}` {
		t.Fatalf("JSON %s", got)
	}
}
