package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/isasgd/isasgd/internal/serve"
	"github.com/isasgd/isasgd/internal/snapshot"
)

// startTarget stands up a predictable in-process serving node.
func startTarget(t *testing.T) string {
	t.Helper()
	mgr := serve.NewManager(serve.NewRegistry(), 1, t.TempDir())
	ts := httptest.NewServer(serve.NewServer(mgr))
	t.Cleanup(ts.Close)
	for _, name := range []string{"a", "b"} {
		if err := mgr.Registry().Publish(&serve.Model{
			Name: name, Store: snapshot.Of(1, 1, []float64{1, -2, 3, -4}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return ts.URL
}

// TestLoadgenEndToEnd runs the CLI against a live node and checks both
// the human summary and the JSON artifact.
func TestLoadgenEndToEnd(t *testing.T) {
	base := startTarget(t)
	jsonPath := filepath.Join(t.TempDir(), "load.json")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-targets", base,
		"-models", "a,b",
		"-mode", "closed",
		"-concurrency", "2",
		"-duration", "250ms",
		"-warmup", "50ms",
		"-dim", "4", "-nnz", "2",
		"-slo-p99", "10s",
		"-json", jsonPath,
		"-fail-on-errors",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	for _, want := range []string{"qps ", "p99 ", "SLO p99 <= 10s: MET", "wrote "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep LoadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 || rep.Errors != 0 || !rep.MetSLO {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

// TestLoadgenFailOnErrors exercises the CI gate: a model that does not
// exist produces 404s, which -fail-on-errors must turn into a nonzero
// exit.
func TestLoadgenFailOnErrors(t *testing.T) {
	base := startTarget(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-targets", base,
		"-models", "missing",
		"-duration", "150ms",
		"-dim", "4", "-nnz", "2",
		"-fail-on-errors",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("err = %v, want request-failure error", err)
	}
}

// TestLoadgenValidation covers the flag contract.
func TestLoadgenValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), nil, &out); err == nil {
		t.Error("missing -models accepted")
	}
	if err := run(context.Background(), []string{"-models", "m", "-mode", "open"}, &out); err == nil {
		t.Error("open mode without -rate accepted")
	}
	out.Reset()
	if err := run(context.Background(), []string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "isasgd-loadgen") {
		t.Errorf("version output %q", out.String())
	}
}
