package serve

import (
	"bytes"
	"fmt"
	"mime/multipart"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/isasgd/isasgd/internal/xrand"
)

// streamCorpus writes an n-row LibSVM corpus with a simple separable
// concept over dim features.
func streamCorpus(t *testing.T, n, dim int, seed uint64) string {
	t.Helper()
	rng := xrand.New(seed)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		j := rng.Intn(dim)
		v := rng.NormFloat64()
		y := 1
		if v < 0 {
			y = -1
		}
		fmt.Fprintf(&sb, "%d %d:%.6f\n", y, j+1, v)
	}
	return sb.String()
}

func writeCorpusFile(t *testing.T, corpus string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.libsvm")
	if err := os.WriteFile(path, []byte(corpus), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func streamSpec(path string) JobSpec {
	return JobSpec{
		Kind: "stream", Path: path, Model: "stream-model",
		Dim: 16, BlockSize: 64, WindowBlocks: 2, Threads: 2, Seed: 7,
	}
}

// TestStreamJobFromPath runs the asynchronous file-fed streaming path
// end to end: submit, poll, inspect the per-block curve, and predict
// from the published model — for the default spec and for an f32 job
// with gradient-norm importance (the loss feedback the update loop
// records).
func TestStreamJobFromPath(t *testing.T) {
	t.Run("default", func(t *testing.T) { testStreamJobFromPath(t, func(*JobSpec) {}) })
	t.Run("f32-loss-adaptive", func(t *testing.T) {
		testStreamJobFromPath(t, func(s *JobSpec) {
			s.Precision, s.Importance = "f32", "grad"
		})
	})
}

func testStreamJobFromPath(t *testing.T, mutate func(*JobSpec)) {
	ts, mgr, dir := testServer(t, 2)
	path := writeCorpusFile(t, streamCorpus(t, 512, 16, 3))
	mgr.SetStreamRoot(filepath.Dir(path))

	spec := streamSpec(path)
	mutate(&spec)
	resp := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	st := decodeBody[JobStatus](t, resp)
	if st.Kind != "stream" {
		t.Fatalf("job kind %q, want stream", st.Kind)
	}

	final := pollJob(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s)", final.State, final.Error)
	}
	if final.Samples != 512 || final.Dim != 16 {
		t.Fatalf("final status samples=%d dim=%d, want 512/16", final.Samples, final.Dim)
	}
	if final.Epoch != 8 { // 512 rows / 64-row blocks
		t.Fatalf("final Epoch (blocks) = %d, want 8", final.Epoch)
	}
	if final.Iters == 0 {
		t.Fatalf("no updates recorded: %+v", final)
	}

	// The per-block curve must exist and end at the final block.
	curveResp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/curve")
	if err != nil {
		t.Fatal(err)
	}
	curve := decodeBody[CurveResponse](t, curveResp)
	if len(curve.Curve) != 8 {
		t.Fatalf("curve has %d points, want 8", len(curve.Curve))
	}

	// The model is published and predicts.
	pResp := postJSON(t, ts.URL+"/v1/models/stream-model/predict", PredictRequest{
		Indices: []int{3}, Values: []float64{1.5},
	})
	if pResp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", pResp.StatusCode)
	}
	pr := decodeBody[PredictResponse](t, pResp)
	if len(pr.Predictions) != 1 {
		t.Fatalf("got %d predictions", len(pr.Predictions))
	}

	// The checkpoint landed on disk under the model name.
	if _, err := os.Stat(filepath.Join(dir, "stream-model.ckpt")); err != nil {
		t.Fatalf("stream checkpoint missing: %v", err)
	}
}

// TestStreamUploadMultipart trains during a multipart upload and
// returns the terminal status synchronously.
func TestStreamUploadMultipart(t *testing.T) {
	ts, _, _ := testServer(t, 2)
	corpus := streamCorpus(t, 256, 16, 5)

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	spec := streamSpec("")
	spec.Path = ""
	spec.Model = "upload-model"
	sp, err := mw.CreateFormField("spec")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(sp, `{"kind":"stream","model":"upload-model","dim":16,"block_size":64,"threads":2,"seed":7}`)
	dp, err := mw.CreateFormFile("data", "corpus.libsvm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dp.Write([]byte(corpus)); err != nil {
		t.Fatal(err)
	}
	mw.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs/stream", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[JobStatus](t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, st)
	}
	if st.State != StateDone || st.Samples != 256 {
		t.Fatalf("terminal status %+v", st)
	}
	// Model served under the requested name.
	mResp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	models := decodeBody[[]ModelInfo](t, mResp)
	found := false
	for _, m := range models {
		if m.Name == "upload-model" && m.Iters > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("upload-model not published: %+v", models)
	}
}

// TestStreamUploadRawBody covers the non-multipart encoding: raw LibSVM
// body plus a JSON spec query parameter.
func TestStreamUploadRawBody(t *testing.T) {
	ts, _, _ := testServer(t, 1)
	corpus := streamCorpus(t, 128, 8, 9)
	url := ts.URL + `/v1/jobs/stream?spec={"kind":"stream","dim":8,"block_size":32,"seed":1}`
	resp, err := http.Post(url, "text/plain", strings.NewReader(corpus))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[JobStatus](t, resp)
	if resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("status %d, job %+v", resp.StatusCode, st)
	}
	if st.Epoch != 4 { // 128 rows / 32-row blocks
		t.Fatalf("Epoch = %d, want 4", st.Epoch)
	}
}

func TestCompileStreamValidation(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "ok.libsvm")
	if err := os.WriteFile(path, []byte("+1 1:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := func() JobSpec { return JobSpec{Kind: "stream", Path: path, Dim: 8} }
	cases := map[string]JobSpec{
		"missing dim":           {Kind: "stream", Path: path},
		"missing source":        {Kind: "stream", Dim: 8},
		"dataset on stream":     func() JobSpec { s := base(); s.Dataset = "small"; return s }(),
		"epochs on stream":      func() JobSpec { s := base(); s.Epochs = 3; return s }(),
		"eval_every on stream":  func() JobSpec { s := base(); s.EvalEvery = 4; return s }(),
		"bad algo":              func() JobSpec { s := base(); s.Algo = "svrg-sgd"; return s }(),
		"bad kind":              {Kind: "bogus", Dataset: "small"},
		"negative rebuild":      func() JobSpec { s := base(); s.RebuildEvery = -1; return s }(),
		"stream field on batch": {Dataset: "small", Dim: 8},
		"missing path file":     {Kind: "stream", Path: filepath.Join(root, "absent.libsvm"), Dim: 8},
		"path escapes root":     {Kind: "stream", Path: filepath.Join(root, "..", "escape.libsvm"), Dim: 8},
		"path outside root":     {Kind: "stream", Path: "/etc/passwd", Dim: 8},
	}
	for name, spec := range cases {
		if _, err := compile(spec, false, root); err == nil {
			t.Errorf("compile(%s) accepted an invalid spec", name)
		}
	}
	// A symlink inside the root pointing outside it must not smuggle
	// reads past the containment check.
	outside := filepath.Join(t.TempDir(), "secret.libsvm")
	if err := os.WriteFile(outside, []byte("+1 1:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(root, "evil.libsvm")
	if err := os.Symlink(outside, link); err == nil {
		if _, err := compile(JobSpec{Kind: "stream", Path: link, Dim: 8}, false, root); err == nil {
			t.Error("symlink escaping the stream root was accepted")
		}
	}
	// Without a configured stream root, every file-fed spec is rejected.
	if _, err := compile(base(), false, ""); err == nil {
		t.Error("file-fed stream spec accepted with no stream root configured")
	}
	// Upload-fed compile must not require a path (or a root).
	if _, err := compile(JobSpec{Kind: "stream", Dim: 8}, true, ""); err != nil {
		t.Errorf("body-fed stream spec rejected: %v", err)
	}
	// A root-relative path resolves under the root.
	if _, err := compile(JobSpec{Kind: "stream", Path: "ok.libsvm", Dim: 8}, false, root); err != nil {
		t.Errorf("root-relative path rejected: %v", err)
	}
	// And a valid file-fed spec compiles with the uniform baseline algo;
	// sequential algos clamp to one worker exactly like the CLI.
	s := base()
	s.Algo = "asgd"
	r, err := compile(s, false, root)
	if err != nil {
		t.Fatalf("valid stream spec rejected: %v", err)
	}
	if r.stream == nil || !r.stream.Uniform {
		t.Fatalf("asgd stream spec should compile to a uniform trainer config")
	}
	s = base()
	s.Algo = "is-sgd"
	s.Threads = 8
	if r, err = compile(s, false, root); err != nil {
		t.Fatalf("is-sgd stream spec rejected: %v", err)
	}
	if r.stream.Workers != 1 {
		t.Fatalf("is-sgd compiled to %d workers, want 1", r.stream.Workers)
	}
}
