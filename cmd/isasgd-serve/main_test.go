package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// notifyWriter buffers run's output and announces the bound address as
// soon as the "listening on" line appears.
type notifyWriter struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	addrCh chan string
	sent   bool
}

var listenRE = regexp.MustCompile(`listening on http://(\S+)`)

func (w *notifyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, _ := w.buf.Write(p)
	if !w.sent {
		if m := listenRE.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.addrCh <- string(m[1])
		}
	}
	return n, nil
}

func (w *notifyWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestGracefulShutdown drives the binary's whole lifecycle: start,
// accept a long-running job over HTTP, then cancel the run context (the
// SIGINT/SIGTERM path) and check the job was cancelled, its partial
// progress checkpointed, and run returned cleanly.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	out := &notifyWriter{addrCh: make(chan string, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-pool", "1",
			"-checkpoint-dir", dir,
			"-shutdown-timeout", "30s",
		}, out)
	}()

	var addr string
	select {
	case addr = <-out.addrCh:
	case err := <-done:
		t.Fatalf("run exited early: %v (output %q)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never started listening")
	}
	base := "http://" + addr

	// A job that only ends by cancellation (huge epoch budget).
	spec := map[string]any{
		"model": "inflight", "algo": "sgd",
		"data":       "1 1:1 3:0.5\n-1 2:1\n1 1:0.4 2:0.1\n-1 3:0.9\n",
		"epochs":     1 << 26,
		"step":       0.1,
		"eval_every": 1 << 20,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, sub.ID)
	}

	// Wait until the job is actually training.
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// SIGINT path: cancel the context and wait for a clean exit.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v (output %q)", err, out.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run did not shut down")
	}

	if !strings.Contains(out.String(), "shutdown complete") {
		t.Fatalf("output missing shutdown confirmation: %q", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "inflight.partial.ckpt")); err != nil {
		t.Fatalf("in-flight job was not checkpointed on shutdown: %v", err)
	}

	// Third satellite of the persistence story: a fresh run restores the
	// checkpointed model and serves predictions from it immediately.
	out2 := &notifyWriter{addrCh: make(chan string, 1)}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	done2 := make(chan error, 1)
	go func() {
		done2 <- run(ctx2, []string{"-addr", "127.0.0.1:0", "-checkpoint-dir", dir}, out2)
	}()
	select {
	case addr = <-out2.addrCh:
	case err := <-done2:
		t.Fatalf("second run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("second server never started")
	}
	resp, err = http.Post("http://"+addr+"/v1/models/inflight.partial/predict",
		"application/json", strings.NewReader(`{"indices":[0],"values":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict on restored model: status %d", resp.StatusCode)
	}
	if !strings.Contains(out2.String(), "restored 1 model(s)") {
		t.Fatalf("second run did not report a restore: %q", out2.String())
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("second run shutdown: %v", err)
	}
}

func TestBadFlags(t *testing.T) {
	err := run(context.Background(), []string{"-definitely-not-a-flag"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("run with unknown flag should fail")
	}
}

// startRun boots run() with args and returns its bound address plus a
// shutdown func that cancels the context and waits for a clean exit.
func startRun(t *testing.T, args ...string) (string, *notifyWriter, func()) {
	t.Helper()
	out := &notifyWriter{addrCh: make(chan string, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out) }()
	var addr string
	select {
	case addr = <-out.addrCh:
	case err := <-done:
		cancel()
		t.Fatalf("run exited early: %v (output %q)", err, out.String())
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("server never started listening")
	}
	return addr, out, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v (output %q)", err, out.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatal("run did not shut down")
		}
	}
}

// TestReplicaMode drives the fleet CLI path: an origin trains a model,
// a second process started with -origin mirrors it, serves predictions
// read-only, reports lag on /v1/models, refuses job submission, and ends
// on the origin's final seq.
func TestReplicaMode(t *testing.T) {
	originAddr, _, stopOrigin := startRun(t, "-pool", "1")
	defer stopOrigin()
	base := "http://" + originAddr

	spec := map[string]any{
		"model": "demo", "algo": "sgd",
		"data":   "1 1:1 3:0.5\n-1 2:1\n1 1:0.4 2:0.1\n-1 3:0.9\n",
		"epochs": 50, "step": 0.1,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	repAddr, repOut, stopReplica := startRun(t, "-pool", "1", "-origin", base)
	defer stopReplica()
	repBase := "http://" + repAddr
	if !strings.Contains(repOut.String(), "replica mode") {
		t.Fatalf("replica run did not announce replica mode: %q", repOut.String())
	}

	// The mirrored model appears and serves predictions.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Post(repBase+"/v1/models/demo/predict",
			"application/json", strings.NewReader(`{"indices":[1],"values":[1]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never served the mirrored model (last status %d)", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Replica rows carry the lag field; writes are refused.
	resp, err = http.Get(repBase + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list []struct {
		Name    string   `json:"name"`
		Replica bool     `json:"replica"`
		Lag     *float64 `json:"lag_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].Name != "demo" || !list[0].Replica || list[0].Lag == nil {
		t.Fatalf("replica /v1/models = %+v, want demo with replica+lag fields", list)
	}
	resp, err = http.Post(repBase+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica job submission: status %d, want 403", resp.StatusCode)
	}

	// Catch-up: once the origin's job has finished (live:false), the
	// replica converges to the origin's weight-version seq.
	var oseq, rseq uint64
	var olive bool
	for deadline := time.Now().Add(30 * time.Second); ; {
		oseq, olive = demoRow(t, base)
		rseq, _ = demoRow(t, repBase)
		if !olive && oseq > 0 && oseq == rseq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: origin seq=%d live=%v, replica seq=%d", oseq, olive, rseq)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// demoRow returns the seq and live fields of model "demo" in base's
// /v1/models listing (zero values when it is not listed).
func demoRow(t *testing.T, base string) (seq uint64, live bool) {
	t.Helper()
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct {
		Name string `json:"name"`
		Seq  uint64 `json:"seq"`
		Live bool   `json:"live"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	for _, m := range list {
		if m.Name == "demo" {
			return m.Seq, m.Live
		}
	}
	return 0, false
}
