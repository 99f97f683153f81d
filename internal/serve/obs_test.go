package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/obs/obstest"
)

// scrape fetches /metrics once and returns the exposition body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsEndToEnd is the telemetry acceptance test: one streaming
// job trained to completion plus a few predictions must leave every
// instrumented subsystem visible in a single GET /metrics scrape, and
// the whole exposition must parse as Prometheus text format 0.0.4.
func TestMetricsEndToEnd(t *testing.T) {
	ts, mgr, _ := testServer(t, 2)
	path := writeCorpusFile(t, streamCorpus(t, 512, 16, 3))
	mgr.SetStreamRoot(filepath.Dir(path))

	resp := postJSON(t, ts.URL+"/v1/jobs", streamSpec(path))
	sub := decodeBody[JobStatus](t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if st := pollJob(t, ts.URL, sub.ID); st.State != StateDone {
		t.Fatalf("job state = %s (err %q), want done", st.State, st.Error)
	}

	for i := 0; i < 4; i++ {
		pr := postJSON(t, ts.URL+"/v1/models/stream-model/predict",
			PredictRequest{Indices: []int{1, 5}, Values: []float64{0.5, -0.25}})
		if pr.StatusCode != http.StatusOK {
			t.Fatalf("predict: status %d", pr.StatusCode)
		}
		pr.Body.Close()
	}

	body := scrape(t, ts.URL)
	if err := obstest.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition does not lint: %v", err)
	}

	// One sample per instrumented subsystem: serving latency summary,
	// HTTP middleware, predict phase breakdown, training staleness and
	// throughput, IS diagnostics, alias rebuilds, job/update bookkeeping,
	// runtime gauges and build metadata.
	for _, want := range []string{
		`isasgd_model_predict_latency_seconds{model="stream-model",quantile="0.5"}`,
		`isasgd_model_predict_latency_seconds{model="stream-model",quantile="0.99"}`,
		`isasgd_model_predict_latency_seconds_count{model="stream-model"}`,
		`isasgd_model_requests_total{model="stream-model"}`,
		`isasgd_http_requests_total{method="POST",code="200"}`,
		`isasgd_http_request_seconds_count`,
		`isasgd_predict_phase_seconds_count{phase="decode"}`,
		`isasgd_predict_phase_seconds_count{phase="score"}`,
		`isasgd_train_staleness_updates_count{model="stream-model",worker="0"}`,
		`isasgd_train_rows_total{model="stream-model"}`,
		`isasgd_train_updates_total{model="stream-model"}`,
		`isasgd_train_updates_per_sec{model="stream-model"}`,
		`isasgd_is_effective_sample_size{model="stream-model"}`,
		`isasgd_is_psi{model="stream-model"}`,
		`isasgd_is_reservoir_entries{model="stream-model"}`,
		`isasgd_is_alias_rebuilds_total{model="stream-model"}`,
		`isasgd_is_alias_rebuild_seconds_count{model="stream-model"}`,
		`isasgd_jobs{state="done"} 1`,
		`isasgd_updates_total`,
		`isasgd_goroutines`,
		`isasgd_heap_alloc_bytes`,
		`isasgd_build_info{version="`,
		`# TYPE isasgd_model_predict_latency_seconds summary`,
		`# TYPE isasgd_train_staleness_updates summary`,
		`# TYPE isasgd_http_requests_total counter`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
}

// TestRequestIDPropagation checks the tracing contract: a caller-supplied
// X-Request-ID is echoed on the response and stamped into the job's
// status; absent one, the middleware mints a fresh id.
func TestRequestIDPropagation(t *testing.T) {
	ts, _, _ := testServer(t, 1)

	spec := JobSpec{Model: "traced", Dataset: "small", Algo: "sgd", Epochs: 2, Step: 0.5, Seed: 1}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderRequestID, "trace-me-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get(obs.HeaderRequestID); got != "trace-me-123" {
		t.Fatalf("response %s = %q, want echo of trace-me-123", obs.HeaderRequestID, got)
	}
	sub := decodeBody[JobStatus](t, resp)
	if sub.RequestID != "trace-me-123" {
		t.Fatalf("JobStatus.RequestID = %q, want trace-me-123", sub.RequestID)
	}
	st := pollJob(t, ts.URL, sub.ID)
	if st.RequestID != "trace-me-123" {
		t.Fatalf("terminal JobStatus.RequestID = %q, want trace-me-123", st.RequestID)
	}

	// No header: the middleware mints one and it still reaches the job.
	resp2 := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Model: "traced2", Dataset: "small", Algo: "sgd", Epochs: 2, Step: 0.5, Seed: 2})
	minted := resp2.Header.Get(obs.HeaderRequestID)
	if minted == "" {
		t.Fatal("no minted X-Request-ID on response")
	}
	sub2 := decodeBody[JobStatus](t, resp2)
	if sub2.RequestID != minted {
		t.Fatalf("JobStatus.RequestID = %q, want minted %q", sub2.RequestID, minted)
	}
}
