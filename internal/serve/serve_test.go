package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/snapshot"
)

// testServer spins up the full HTTP stack over a fresh manager.
func testServer(t *testing.T, pool int) (*httptest.Server, *Manager, string) {
	t.Helper()
	dir := t.TempDir()
	mgr := NewManager(NewRegistry(), pool, dir)
	ts := httptest.NewServer(NewServer(mgr))
	t.Cleanup(ts.Close)
	return ts, mgr, dir
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

// pollJob polls GET /v1/jobs/{id} until the job is terminal.
func pollJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeBody[JobStatus](t, resp)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

// TestEndToEnd is the acceptance scenario: submit a Small-preset job,
// poll it to completion, check the convergence curve decreases, predict
// from the published model, export its checkpoint, re-import it under a
// new name, and verify the clone predicts identically.
func TestEndToEnd(t *testing.T) {
	ts, _, _ := testServer(t, 2)

	resp := postJSON(t, ts.URL+"/v1/jobs", JobSpec{
		Model: "demo", Dataset: "small", Algo: "is-asgd",
		Epochs: 8, Step: 0.5, Seed: 1,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	sub := decodeBody[JobStatus](t, resp)
	if sub.ID == "" || sub.Model != "demo" {
		t.Fatalf("unexpected submit response %+v", sub)
	}

	st := pollJob(t, ts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job state = %s (err %q), want done", st.State, st.Error)
	}
	if st.Samples != 600 || st.Dim != 400 {
		t.Fatalf("job saw %d×%d, want 600×400", st.Samples, st.Dim)
	}

	// Convergence curve: epoch 0 through 8, objective decreasing.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/curve")
	if err != nil {
		t.Fatal(err)
	}
	curve := decodeBody[CurveResponse](t, resp)
	if len(curve.Curve) != 9 {
		t.Fatalf("curve has %d points, want 9", len(curve.Curve))
	}
	first, last := curve.Curve[0], curve.Curve[len(curve.Curve)-1]
	if !(last.Obj < first.Obj) {
		t.Fatalf("objective did not decrease: %g -> %g", first.Obj, last.Obj)
	}

	// The finished job published its model.
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	models := decodeBody[[]ModelInfo](t, resp)
	if len(models) != 1 || models[0].Name != "demo" || models[0].Dim != 400 {
		t.Fatalf("models = %+v, want [demo dim=400]", models)
	}

	// Batched prediction.
	batch := PredictRequest{Instances: []Instance{
		{Indices: []int{0, 1, 2}, Values: []float64{1, -1, 0.5}},
		{Indices: []int{399, 7}, Values: []float64{2, 0.25}},
		{Indices: []int{100000}, Values: []float64{3}}, // OOV index scores 0
	}}
	resp = postJSON(t, ts.URL+"/v1/models/demo/predict", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d", resp.StatusCode)
	}
	preds := decodeBody[PredictResponse](t, resp)
	if len(preds.Predictions) != 3 {
		t.Fatalf("got %d predictions, want 3", len(preds.Predictions))
	}
	for i, p := range preds.Predictions {
		if p.Label != 1 && p.Label != -1 {
			t.Fatalf("prediction %d label = %g, want ±1", i, p.Label)
		}
	}
	if preds.Predictions[2].Score != 0 {
		t.Fatalf("OOV-only instance score = %g, want 0", preds.Predictions[2].Score)
	}

	// Single-instance shorthand agrees with the batch form.
	resp = postJSON(t, ts.URL+"/v1/models/demo/predict", PredictRequest{
		Indices: []int{0, 1, 2}, Values: []float64{1, -1, 0.5},
	})
	single := decodeBody[PredictResponse](t, resp)
	if len(single.Predictions) != 1 || single.Predictions[0] != preds.Predictions[0] {
		t.Fatalf("single prediction %+v != batch prediction %+v",
			single.Predictions, preds.Predictions[0])
	}

	// Export the checkpoint, re-import under a new name, and verify the
	// clone scores identically.
	resp, err = http.Get(ts.URL + "/v1/models/demo/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	ckptBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d, err %v", resp.StatusCode, err)
	}
	req, err := http.NewRequest(http.MethodPut,
		ts.URL+"/v1/models/demo2/checkpoint", bytes.NewReader(ckptBytes))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	info := decodeBody[ModelInfo](t, resp)
	if info.Name != "demo2" || info.Dim != 400 {
		t.Fatalf("import response %+v", info)
	}
	resp = postJSON(t, ts.URL+"/v1/models/demo2/predict", batch)
	clone := decodeBody[PredictResponse](t, resp)
	for i := range preds.Predictions {
		if clone.Predictions[i].Score != preds.Predictions[i].Score {
			t.Fatalf("clone score %d = %g, want %g",
				i, clone.Predictions[i].Score, preds.Predictions[i].Score)
		}
	}

	// Telemetry surfaces.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`isasgd_jobs{state="done"} 1`,
		`isasgd_updates_total`,
		`isasgd_model_requests_total{model="demo"} 2`,
		`isasgd_model_predictions_total{model="demo"} 4`,
		`isasgd_model_qps{model="demo"}`,
		`isasgd_model_seq{model="demo",live="0"}`,
		`isasgd_model_predict_latency_seconds{model="demo",quantile="0.5"}`,
		`isasgd_model_predict_latency_seconds{model="demo",quantile="0.99"}`,
	} {
		if !strings.Contains(string(metricsText), want) {
			t.Errorf("metrics missing %q in:\n%s", want, metricsText)
		}
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decodeBody[map[string]any](t, resp)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %+v", health)
	}
}

// TestInlineDataJob trains on an uploaded LibSVM payload.
func TestInlineDataJob(t *testing.T) {
	ts, _, _ := testServer(t, 1)
	data := "1 1:1 3:0.5\n-1 2:1\n1 1:0.4 2:0.1\n-1 3:0.9\n"
	resp := postJSON(t, ts.URL+"/v1/jobs", JobSpec{
		Model: "inline", Data: data, Algo: "sgd", Objective: "sqhinge-l2",
		Epochs: 20, Step: 0.3, Seed: 3,
	})
	sub := decodeBody[JobStatus](t, resp)
	if sub.Samples != 4 || sub.Dim != 3 {
		t.Fatalf("inline dataset parsed as %d×%d, want 4×3", sub.Samples, sub.Dim)
	}
	st := pollJob(t, ts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job state = %s (err %q)", st.State, st.Error)
	}
	resp = postJSON(t, ts.URL+"/v1/models/inline/predict", PredictRequest{
		Indices: []int{0}, Values: []float64{1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestAPIErrors covers the 4xx surface.
func TestAPIErrors(t *testing.T) {
	ts, _, _ := testServer(t, 1)
	cases := []struct {
		name string
		do   func() *http.Response
		code int
	}{
		{"unknown job", func() *http.Response {
			r, err := http.Get(ts.URL + "/v1/jobs/job-999999")
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, http.StatusNotFound},
		{"unknown model predict", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/models/ghost/predict",
				PredictRequest{Indices: []int{0}, Values: []float64{1}})
		}, http.StatusNotFound},
		{"no data source", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/jobs", JobSpec{Algo: "sgd"})
		}, http.StatusBadRequest},
		{"both data sources", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/jobs", JobSpec{Dataset: "small", Data: "1 1:1\n"})
		}, http.StatusBadRequest},
		{"bad preset", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/jobs", JobSpec{Dataset: "news21"})
		}, http.StatusBadRequest},
		{"bad algo", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/jobs", JobSpec{Dataset: "small", Algo: "adam"})
		}, http.StatusBadRequest},
		{"bad model name", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/jobs", JobSpec{Dataset: "small", Model: "../evil"})
		}, http.StatusBadRequest},
		{"ragged instance", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/models/ghost/predict",
				PredictRequest{Indices: []int{0, 1}, Values: []float64{1}})
		}, http.StatusNotFound}, // model checked before shape
		{"bad checkpoint import", func() *http.Response {
			req, err := http.NewRequest(http.MethodPut,
				ts.URL+"/v1/models/x/checkpoint", strings.NewReader("not a checkpoint"))
			if err != nil {
				t.Fatal(err)
			}
			r, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := tc.do()
		if resp.StatusCode != tc.code {
			body, _ := io.ReadAll(resp.Body)
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.code, body)
		}
		resp.Body.Close()
	}
}

// TestJobSpecBalanceRefused: the balance knob is gone, so a job spec
// that still names it is a 400 that names the field, whatever mode it
// asks for, before any job exists.
func TestJobSpecBalanceRefused(t *testing.T) {
	ts, mgr, _ := testServer(t, 1)
	for _, body := range []string{
		`{"dataset":"small","balance":"auto"}`,
		`{"kind":"stream","dim":8,"path":"c.libsvm","balance":"shuffle"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		e := decodeBody[errorBody](t, resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `unknown field "balance"`) {
			t.Errorf("%s: status %d, error %q; want 400 naming the field", body, resp.StatusCode, e.Error)
		}
	}
	if jobs := mgr.Jobs(); len(jobs) != 0 {
		t.Errorf("%d jobs exist after refused submissions", len(jobs))
	}
}

// TestRestore verifies a new manager republishes models persisted by a
// previous one from the shared checkpoint directory.
func TestRestore(t *testing.T) {
	ts, mgr, dir := testServer(t, 1)
	resp := postJSON(t, ts.URL+"/v1/jobs", JobSpec{
		Model: "persisted", Dataset: "small", Algo: "sgd", Epochs: 3, Step: 0.5,
	})
	sub := decodeBody[JobStatus](t, resp)
	if st := pollJob(t, ts.URL, sub.ID); st.State != StateDone {
		t.Fatalf("job state = %s", st.State)
	}
	if _, ok := mgr.Registry().Get("persisted"); !ok {
		t.Fatal("model not published")
	}

	// A corrupt checkpoint alongside the good one must not block boot.
	if err := os.WriteFile(filepath.Join(dir, "corrupt.ckpt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Second life: fresh registry + manager over the same directory.
	mgr2 := NewManager(NewRegistry(), 1, dir)
	n, skipped, err := mgr2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d models, want 1", n)
	}
	if len(skipped) != 1 || filepath.Base(skipped[0]) != "corrupt.ckpt" {
		t.Fatalf("skipped = %v, want [corrupt.ckpt]", skipped)
	}
	m, ok := mgr2.Registry().Get("persisted")
	if !ok || m.Dim() != 400 {
		t.Fatalf("restored model missing or wrong dim (%v)", ok)
	}
}

// TestF32ModelKeepsWidth trains an f32 model, with live publication and
// without, and takes it through an export/import and a restart from the
// checkpoint directory: every copy reports dtype f32 in /v1/models, holds
// the trained weights bit for bit, and scores the same bits. The
// exported file stores 4-byte values.
func TestF32ModelKeepsWidth(t *testing.T) {
	for _, every := range []int{1, 0} {
		t.Run(fmt.Sprintf("publish-every=%d", every), func(t *testing.T) { f32KeepsWidth(t, every) })
	}
}

func f32KeepsWidth(t *testing.T, every int) {
	ts, mgr, dir := testServer(t, 1)
	mgr.SetPublishEvery(every)
	sub := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", JobSpec{
		Model: "narrow", Dataset: "small", Algo: "is-asgd", Epochs: 3, Step: 0.5, Seed: 1, Precision: "f32",
	}))
	if st := pollJob(t, ts.URL, sub.ID); st.State != StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	trained, _ := mgr.Registry().Get("narrow")
	want := trained.Version().Weights

	resp, err := http.Get(ts.URL + "/v1/models/narrow/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	file, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d, err %v", resp.StatusCode, err)
	}
	if len(file) > 4*len(want)+64 {
		t.Fatalf("exported %d bytes for %d f32 weights", len(file), len(want))
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/clone/checkpoint", bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	if info := decodeBody[ModelInfo](t, resp); info.DType != "f32" {
		t.Fatalf("import answered %+v, want dtype f32", info)
	}

	batch := PredictRequest{Instances: []Instance{
		{Indices: []int{0, 1, 2}, Values: []float64{1, -1, 0.5}},
		{Indices: []int{399, 7, 123}, Values: []float64{2, 0.25, -3}},
	}}
	score := func(base, name string) []Prediction {
		return decodeBody[PredictResponse](t, postJSON(t, base+"/v1/models/"+name+"/predict", batch)).Predictions
	}
	ref := score(ts.URL, "narrow")

	mgr2 := NewManager(NewRegistry(), 1, dir)
	if n, skipped, err := mgr2.Restore(); err != nil || n != 2 {
		t.Fatalf("restored %d models (skipped %v, err %v), want 2", n, skipped, err)
	}
	ts2 := httptest.NewServer(NewServer(mgr2))
	defer ts2.Close()
	for _, c := range []struct {
		base, name string
		reg        *Registry
	}{{ts.URL, "narrow", mgr.Registry()}, {ts.URL, "clone", mgr.Registry()},
		{ts2.URL, "narrow", mgr2.Registry()}, {ts2.URL, "clone", mgr2.Registry()}} {
		m, _ := c.reg.Get(c.name)
		got := m.Version().Weights
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s at %s: weight %d = %x, want %x", c.name, c.base, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		for i, p := range score(c.base, c.name) {
			if math.Float64bits(p.Score) != math.Float64bits(ref[i].Score) {
				t.Fatalf("%s at %s: score %d = %g, want %g", c.name, c.base, i, p.Score, ref[i].Score)
			}
		}
		resp, err := http.Get(c.base + "/v1/models")
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range decodeBody[[]ModelInfo](t, resp) {
			if info.DType != "f32" {
				t.Fatalf("%s lists %s with dtype %q, want f32", c.base, info.Name, info.DType)
			}
		}
	}
}

// TestHotSwap republishes a model under the same name while a reader
// holds the old version: both remain usable and the registry serves the
// new weights.
func TestHotSwap(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Publish(&Model{Name: "m", Store: snapshot.Of(1, 1, []float64{1, 0})}); err != nil {
		t.Fatal(err)
	}
	old, _ := reg.Get("m")
	if err := reg.Publish(&Model{Name: "m", Store: snapshot.Of(2, 2, []float64{0, 2})}); err != nil {
		t.Fatal(err)
	}
	in := Instance{Indices: []int{0, 1}, Values: []float64{1, 1}}
	if got := old.Predict(in).Score; got != 1 {
		t.Fatalf("old model score = %g, want 1", got)
	}
	cur, _ := reg.Get("m")
	if got := cur.Predict(in).Score; got != 2 {
		t.Fatalf("swapped model score = %g, want 2", got)
	}
	// The telemetry carried over the swap, and the response reports the
	// version it was scored against.
	resp, err := reg.Predict("m", []Instance{in})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 2 || resp.Seq != 1 || resp.Live {
		t.Fatalf("predict version = seq %d epoch %d live %v, want 1/2/false",
			resp.Seq, resp.Epoch, resp.Live)
	}
	resp.Release()
	infos := reg.List()
	if len(infos) != 1 || infos[0].Requests != 1 || infos[0].Predictions != 1 {
		t.Fatalf("List = %+v, want one model with 1 request / 1 prediction", infos)
	}
}

// TestPublishValidation rejects unservable models.
func TestPublishValidation(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Publish(&Model{Store: snapshot.Of(0, 0, []float64{1})}); err == nil {
		t.Fatal("Publish accepted an unnamed model")
	}
	if err := reg.Publish(&Model{Name: "m"}); err == nil {
		t.Fatal("Publish accepted a model with no store")
	}
	if err := reg.Publish(&Model{Name: "m", Store: snapshot.NewStore()}); err == nil {
		t.Fatal("Publish accepted a model with an empty store")
	}
}

func ExampleInstance() {
	m := &Model{Name: "ex", Store: snapshot.Of(0, 0, []float64{0.5, -0.25})}
	p := m.Predict(Instance{Indices: []int{0, 1}, Values: []float64{2, 4}})
	fmt.Printf("score=%g label=%g\n", p.Score, p.Label)
	// Output: score=0 label=1
}
