package serve

import (
	"net/http"
	"testing"

	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/snapshot"
)

// f32Store builds a single-version store carrying float32-representable
// weights and the f32 dtype stamp — exactly what an f32 training run
// publishes.
func f32Store(w []float64) *snapshot.Store {
	st := snapshot.Of(1, 1, w)
	st.SetDType(model.PrecisionF32)
	return st
}

// TestPredictF32Bitwise pins the serving half of the f32 path: a model
// whose store declares f32 scores through the narrowed weight view, and
// because f32-trained weights widen exactly, every score is bitwise
// identical to the float64 scorer over the same weights.
func TestPredictF32Bitwise(t *testing.T) {
	w := make([]float64, 512)
	for i := range w {
		// Arbitrary but exactly float32-representable values, sign-mixed.
		w[i] = float64(float32(i)*0.25 - 17.5)
	}
	reg := NewRegistry()
	if err := reg.Publish(&Model{Name: "w64", Store: snapshot.Of(1, 1, w)}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Publish(&Model{Name: "w32", Store: f32Store(w)}); err != nil {
		t.Fatal(err)
	}
	batch := []Instance{
		{Indices: []int{0, 3, 511}, Values: []float64{1, -0.5, 2.25}},
		{Indices: []int{7, 7, 130}, Values: []float64{0.125, 0.125, -3}}, // duplicate index
		{Indices: []int{511, 9000}, Values: []float64{1, 42}},            // out-of-range ignored
		{Indices: nil, Values: nil},
	}
	r64, err := reg.Predict("w64", batch)
	if err != nil {
		t.Fatal(err)
	}
	r32, err := reg.Predict("w32", batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if r32.Predictions[i] != r64.Predictions[i] {
			t.Fatalf("instance %d: f32 path %+v != f64 path %+v",
				i, r32.Predictions[i], r64.Predictions[i])
		}
	}
	r64.Release()
	r32.Release()
}

// TestPredictF32ZeroAlloc proves the f32 scoring path is allocation-free
// once warm: the version's float32 view materializes on the first
// predict, and every request after that is map load, version load,
// pooled response, half-width dot.
func TestPredictF32ZeroAlloc(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	reg := NewRegistry()
	w := make([]float64, 1024)
	for i := range w {
		w[i] = float64(float32(i))
	}
	if err := reg.Publish(&Model{Name: "m", Store: f32Store(w)}); err != nil {
		t.Fatal(err)
	}
	batch := []Instance{{Indices: []int{1, 2, 512}, Values: []float64{0.5, -1, 2}}}
	// Warm-up: pools the response and materializes the version's W32.
	for i := 0; i < 8; i++ {
		resp, err := reg.Predict("m", batch)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	if n := testing.AllocsPerRun(1000, func() {
		resp, err := reg.Predict("m", batch)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}); n != 0 {
		t.Fatalf("steady-state f32 predict allocates %.1f objects/op, want 0", n)
	}
}

// TestJobSpecPrecisionValidation: bad precision specs answer at
// submission (400 through the HTTP layer), mirroring solver validation.
func TestJobSpecPrecisionValidation(t *testing.T) {
	for _, spec := range []JobSpec{
		{Dataset: "small", Precision: "f16"},
		{Dataset: "small", Algo: "svrg-sgd", Precision: "f32"},
		{Dataset: "small", Algo: "svrg-asgd", Precision: "f32"},
		{Dataset: "small", Algo: "saga", Precision: "f32"},
		{Kind: "stream", Path: "x", Dim: 8, Precision: "f16"},
	} {
		if _, err := compile(spec, false, "/"); err == nil {
			t.Errorf("spec %+v accepted, want error", spec)
		}
	}
}

// TestJobPrecisionF32EndToEnd trains a small f32 batch job — with the
// adaptive-update knobs on, which f32 runs like f64 — through the full
// HTTP stack: the published model must carry dtype "f32" in both
// the model listing and its weights (float32-representable — proof the
// job really trained at half width), and predictions must flow.
func TestJobPrecisionF32EndToEnd(t *testing.T) {
	ts, mgr, _ := testServer(t, 1)
	resp := postJSON(t, ts.URL+"/v1/jobs", JobSpec{
		Model: "half", Dataset: "small", Algo: "is-asgd",
		Epochs: 4, Step: 0.5, Seed: 1, Precision: "f32",
		AdaptC: 0.05, StalenessBound: 64, DCLambda: 0.02,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	sub := decodeBody[JobStatus](t, resp)
	st := pollJob(t, ts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job state = %s (err %q), want done", st.State, st.Error)
	}

	m, ok := mgr.Registry().Get("half")
	if !ok {
		t.Fatal("model not published")
	}
	if dt := m.Store.DType(); dt != model.PrecisionF32 {
		t.Fatalf("store dtype = %q, want f32", dt)
	}
	for j, w := range m.Version().Weights {
		if w != float64(float32(w)) {
			t.Fatalf("weight %d = %g not float32-representable — f32 path not taken", j, w)
		}
	}
	var listed *ModelInfo
	for _, info := range mgr.Registry().List() {
		if info.Name == "half" {
			listed = &info
			break
		}
	}
	if listed == nil || listed.DType != model.PrecisionF32 {
		t.Fatalf("List dtype = %+v, want f32", listed)
	}
	pred, live := predictHot(t, ts.URL, "half")
	if !live {
		t.Fatal("predict against the f32 model failed")
	}
	if len(pred.Predictions) != 1 {
		t.Fatalf("got %d predictions, want 1", len(pred.Predictions))
	}
}

// TestManagerDefaultPrecision pins the serve-level default knob: specs
// that omit precision inherit the manager's, explicit specs win, and
// unknown defaults are rejected at configuration time.
func TestManagerDefaultPrecision(t *testing.T) {
	mgr := NewManager(NewRegistry(), 1, "")
	if err := mgr.SetDefaultPrecision("bf16"); err == nil {
		t.Fatal("unknown default precision accepted")
	}
	if err := mgr.SetDefaultPrecision("f32"); err != nil {
		t.Fatal(err)
	}
	j, err := mgr.Submit(JobSpec{Model: "d", Dataset: "small", Epochs: 1, Step: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("job state = %s (err %q)", st.State, st.Error)
	}
	m, ok := mgr.Registry().Get("d")
	if !ok {
		t.Fatal("model not published")
	}
	if dt := m.Store.DType(); dt != model.PrecisionF32 {
		t.Fatalf("default-precision job published dtype %q, want f32", dt)
	}
	// An explicit f64 spec overrides the f32 default.
	j2, err := mgr.Submit(JobSpec{Model: "d64", Dataset: "small", Epochs: 1, Step: 0.3, Precision: "f64"})
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	m2, ok := mgr.Registry().Get("d64")
	if !ok {
		t.Fatal("f64 model not published")
	}
	if dt := m2.Store.DType(); dt != model.PrecisionF64 {
		t.Fatalf("explicit-f64 job published dtype %q, want f64", dt)
	}
}
