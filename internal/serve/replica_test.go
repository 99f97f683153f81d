package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/snapshot"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// replicaFixture starts a replicator mirroring origin into a fresh
// replica manager + read-only HTTP server, and tears everything down
// with the test.
func replicaFixture(t *testing.T, origin string) (*Manager, *httptest.Server) {
	t.Helper()
	mgr := NewManager(NewRegistry(), 1, t.TempDir())
	ts := httptest.NewServer(NewServerOpts(mgr, ServerOptions{ReadOnly: true}))
	t.Cleanup(ts.Close)

	repl, err := NewReplicator(ReplicatorConfig{
		Origin:     origin,
		Registry:   mgr.Registry(),
		Interval:   20 * time.Millisecond,
		PollWindow: 2 * time.Second,
		RetryBase:  10 * time.Millisecond,
		RetryCap:   100 * time.Millisecond,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		repl.Run(ctx) //nolint:errcheck // always nil on ctx cancel
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return mgr, ts
}

// TestReplicaConvergence is the fleet's core e2e: an origin publishing
// versions (f64 and f32 models both) is mirrored by a replica that
// converges to the origin's exact Seq, scores bit-for-bit identically,
// reports its lag on /v1/models and /metrics, and refuses writes.
func TestReplicaConvergence(t *testing.T) {
	originMgr := NewManager(NewRegistry(), 1, t.TempDir())
	originTS := httptest.NewServer(NewServerOpts(originMgr, ServerOptions{
		ReplicateWindow: 150 * time.Millisecond,
	}))
	t.Cleanup(originTS.Close)

	w := make([]float64, 256)
	for i := range w {
		w[i] = float64(float32(i)*0.5 - 40) // exactly f32-representable, sign-mixed
	}
	st64 := snapshot.Of(1, 10, w)
	if err := originMgr.Registry().Publish(&Model{
		Name: "plain", Algo: "is-asgd", Objective: "logistic", Dataset: "d1", Store: st64,
	}); err != nil {
		t.Fatal(err)
	}
	st32 := f32Store(w)
	if err := originMgr.Registry().Publish(&Model{Name: "half", Store: st32}); err != nil {
		t.Fatal(err)
	}

	repMgr, repTS := replicaFixture(t, originTS.URL)

	// Publish a few more versions after replication starts — the replica
	// must track a moving origin, not just copy a static one.
	for e := 2; e <= 4; e++ {
		st64.PublishCopy(e, int64(e*10), w)
	}
	wantSeq := st64.Seq()

	waitFor(t, 10*time.Second, "replica to reach the origin's seq", func() bool {
		m, ok := repMgr.Registry().Get("plain")
		if !ok {
			return false
		}
		h, ok2 := repMgr.Registry().Get("half")
		return ok2 && m.Store.Seq() == wantSeq && h.Store.Seq() == st32.Seq()
	})

	// Metadata and dtype survived the wire.
	rm, _ := repMgr.Registry().Get("plain")
	if rm.Algo != "is-asgd" || rm.Objective != "logistic" || rm.Dataset != "d1" {
		t.Fatalf("replica model metadata = %q/%q/%q, want is-asgd/logistic/d1",
			rm.Algo, rm.Objective, rm.Dataset)
	}
	rh, _ := repMgr.Registry().Get("half")
	if rh.Store.DType() != model.PrecisionF32 {
		t.Fatalf("replica dtype = %v, want f32", rh.Store.DType())
	}

	// Predictions match the origin bit for bit, f32 model included.
	batch := []Instance{
		{Indices: []int{0, 3, 255}, Values: []float64{1, -0.5, 2.25}},
		{Indices: []int{7, 7, 130}, Values: []float64{0.125, 0.125, -3}},
	}
	for _, name := range []string{"plain", "half"} {
		or, err := originMgr.Registry().Predict(name, batch)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := repMgr.Registry().Predict(name, batch)
		if err != nil {
			t.Fatal(err)
		}
		if or.Seq != rr.Seq {
			t.Fatalf("%s: replica scored seq %d, origin seq %d", name, rr.Seq, or.Seq)
		}
		for i := range batch {
			if or.Predictions[i] != rr.Predictions[i] {
				t.Fatalf("%s instance %d: replica %+v != origin %+v",
					name, i, rr.Predictions[i], or.Predictions[i])
			}
		}
		or.Release()
		rr.Release()
	}

	// The replica's model list carries the fleet fields; the origin's
	// does not.
	var list []ModelInfo
	resp, err := http.Get(repTS.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	list = decodeBody[[]ModelInfo](t, resp)
	found := false
	for _, info := range list {
		if info.Name != "plain" {
			continue
		}
		found = true
		if !info.Replica {
			t.Error("replica /v1/models entry missing replica:true")
		}
		if info.Lag == nil {
			t.Error("replica /v1/models entry missing lag_seconds")
		} else if *info.Lag < 0 || *info.Lag > 60 {
			t.Errorf("lag_seconds = %v, want a small non-negative number", *info.Lag)
		}
	}
	if !found {
		t.Fatalf("model missing from replica /v1/models: %+v", list)
	}
	resp, err = http.Get(originTS.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range decodeBody[[]ModelInfo](t, resp) {
		if info.Replica || info.Lag != nil {
			t.Fatalf("origin /v1/models entry unexpectedly carries replica fields: %+v", info)
		}
	}

	// Replication telemetry is on the replica's scrape.
	if text := scrape(t, repTS.URL); !strings.Contains(text, `isasgd_replica_seq{model="plain"}`) ||
		!strings.Contains(text, `isasgd_replica_lag_seconds{model="plain"}`) {
		t.Fatalf("/metrics missing replication gauges; got:\n%s", text)
	}

	// Writes are refused on the replica (403), reads and predicts pass.
	wresp := postJSON(t, repTS.URL+"/v1/jobs", map[string]any{"model": "x", "dataset": "none"})
	if wresp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica POST /v1/jobs status = %d, want 403", wresp.StatusCode)
	}
	wresp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, repTS.URL+"/v1/models/plain", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica DELETE /v1/models status = %d, want 403", dresp.StatusCode)
	}
	dresp.Body.Close()
	presp := postJSON(t, repTS.URL+"/v1/models/plain/predict",
		map[string]any{"indices": []int{0}, "values": []float64{1}})
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("replica predict status = %d, want 200", presp.StatusCode)
	}
	presp.Body.Close()
}

// TestReplicaSurvivesOriginRestart pins the resync path: the origin dies
// mid-replication and comes back on the same address with its sequence
// reset to 1 (restarted without checkpoints). The replica must detect
// the regression, throw away its mirrored history, and converge on the
// new origin's state.
func TestReplicaSurvivesOriginRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	startOrigin := func(ln net.Listener, weights []float64, versions int) (*Manager, *http.Server) {
		mgr := NewManager(NewRegistry(), 1, t.TempDir())
		st := snapshot.Of(1, 1, weights)
		for e := 2; e <= versions; e++ {
			st.PublishCopy(e, int64(e), weights)
		}
		if err := mgr.Registry().Publish(&Model{Name: "m", Store: st}); err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: NewServerOpts(mgr, ServerOptions{
			ReplicateWindow: 100 * time.Millisecond,
		})}
		go hs.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
		return mgr, hs
	}

	wA := []float64{1, 2, 3, 4}
	_, hsA := startOrigin(ln, wA, 3)

	repMgr, _ := replicaFixture(t, "http://"+addr)
	waitFor(t, 10*time.Second, "replica to mirror the first origin", func() bool {
		m, ok := repMgr.Registry().Get("m")
		return ok && m.Store.Seq() == 3
	})

	// Kill the origin. The replica's pullers now retry into a dead
	// address with backoff.
	if err := hsA.Close(); err != nil {
		t.Fatal(err)
	}

	// Bring a fresh origin up on the same address: one version, new
	// weights, sequence restarted at 1 — strictly behind the replica's
	// cursor.
	wB := []float64{-9, 8, -7, 6}
	var ln2 net.Listener
	waitFor(t, 10*time.Second, "origin address to rebind", func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	_, hsB := startOrigin(ln2, wB, 1)
	t.Cleanup(func() { hsB.Close() })

	waitFor(t, 15*time.Second, "replica to resync onto the restarted origin", func() bool {
		m, ok := repMgr.Registry().Get("m")
		return ok && m.Store.Seq() == 1
	})
	m, _ := repMgr.Registry().Get("m")
	v := m.Store.Load()
	for i, want := range wB {
		if v.Weights[i] != want {
			t.Fatalf("replica weights[%d] = %v after resync, want %v (old origin's were %v)",
				i, v.Weights[i], want, wA[i])
		}
	}
}

// TestReplicateEndpoint covers the origin handler's contract directly:
// cursor semantics (a frame with weights when behind, count 0 when
// current), long-poll expiry, and JSON error statuses.
func TestReplicateEndpoint(t *testing.T) {
	mgr := NewManager(NewRegistry(), 1, t.TempDir())
	ts := httptest.NewServer(NewServerOpts(mgr, ServerOptions{
		ReplicateWindow: 80 * time.Millisecond,
	}))
	t.Cleanup(ts.Close)
	if err := mgr.Registry().Publish(&Model{Name: "m", Algo: "is-asgd", Store: snapshot.Of(2, 5, []float64{1, 2})}); err != nil {
		t.Fatal(err)
	}

	// Behind cursor: full version with weights.
	rr := getFrame(t, ts.URL+"/v1/replicate?model=m&since=0", 2)
	if rr.Seq != 1 || len(rr.Weights) != 2 || rr.Weights[1] != 2 || rr.Epoch != 2 || rr.Iters != 5 ||
		rr.Algo != "is-asgd" || rr.DType != model.PrecisionF64 {
		t.Fatalf("replicate since=0: %+v, want seq 1 with 2 f64 weights", rr)
	}
	if rr.PublishedUnix <= 0 {
		t.Fatalf("replicate response missing publish timestamp: %+v", rr)
	}

	// At cursor: the long-poll expires and answers count 0.
	start := time.Now()
	rr = getFrame(t, ts.URL+"/v1/replicate?model=m&since=1", 2)
	if rr.Weights != nil || rr.Seq != 1 {
		t.Fatalf("replicate since=current: %+v, want seq 1 without weights", rr)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("empty poll answered in %v, want it held open to the window", elapsed)
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/replicate", http.StatusBadRequest},                 // no model
		{"/v1/replicate?model=m&since=x", http.StatusBadRequest}, // bad cursor
		{"/v1/replicate?model=nope&since=0", http.StatusNotFound},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Fatalf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s: error Content-Type %q, want JSON", tc.path, ct)
		}
		if eb := decodeBody[errorBody](t, resp); eb.Error == "" {
			t.Fatalf("GET %s: empty JSON error", tc.path)
		}
	}
}

// TestReplicaPullAbove64MiB replicates an f64 model whose frame is
// larger than 64 MiB, the server's request-body cap, and checks that
// every coordinate arrives: a pull is bounded by the count its frame
// announces and the listed Dim, not by a fixed size.
func TestReplicaPullAbove64MiB(t *testing.T) {
	if testing.Short() || model.RaceEnabled {
		t.Skip("moves a 67 MB frame")
	}
	const dim = 8_400_000 // 8 bytes each: 67.2 MB > 64 MiB
	w := make([]float64, dim)
	for j := range w {
		w[j] = float64(j%1000-500) * 1e-5 // ~20 B each as indented JSON text
	}
	originMgr := NewManager(NewRegistry(), 1, t.TempDir())
	originTS := httptest.NewServer(NewServerOpts(originMgr, ServerOptions{ReplicateWindow: time.Second}))
	t.Cleanup(originTS.Close)
	origin := snapshot.Of(1, 1, w)
	if err := originMgr.Registry().Publish(&Model{Name: "big", Store: origin}); err != nil {
		t.Fatal(err)
	}
	w = nil

	repMgr, _ := replicaFixture(t, originTS.URL)
	waitFor(t, 60*time.Second, "the replica to mirror the 67 MB model", func() bool {
		m, ok := repMgr.Registry().Get("big")
		return ok && m.Store.Seq() == 1
	})
	m, _ := repMgr.Registry().Get("big")
	got, want := m.Store.Load().Weights, origin.Load().Weights
	if len(got) != dim {
		t.Fatalf("replicated %d coordinates, want %d", len(got), dim)
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("coordinate %d = %v, want %v", j, got[j], want[j])
		}
	}
}

// syncBuffer is a log sink safe for concurrent writers.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestReplicaRejectsJSONOrigin pins the mixed-version failure: an origin
// that answers /v1/replicate with a 200 JSON body (one older than the
// frame) costs the replica one error pull per answer, logged with the
// content type, under the usual backoff — not a frame-decode error, and
// not a hot retry loop.
func TestReplicaRejectsJSONOrigin(t *testing.T) {
	var polls atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/v1/models":
			io.WriteString(w, `[{"name":"m","dim":2,"seq":1}]`) //nolint:errcheck
		case "/v1/replicate":
			polls.Add(1)
			io.WriteString(w, `{"model":"m","seq":1,"epoch":1,"iters":1,"weights":[1,2]}`) //nolint:errcheck
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(origin.Close)

	var logs syncBuffer
	mgr := NewManager(NewRegistry(), 1, t.TempDir())
	ts := httptest.NewServer(NewServerOpts(mgr, ServerOptions{ReadOnly: true}))
	t.Cleanup(ts.Close)
	repl, err := NewReplicator(ReplicatorConfig{
		Origin: origin.URL, Registry: mgr.Registry(),
		Interval: 20 * time.Millisecond, PollWindow: time.Second,
		RetryBase: 20 * time.Millisecond, RetryCap: 200 * time.Millisecond,
		Log: slog.New(slog.NewTextHandler(&logs, nil)), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		repl.Run(ctx) //nolint:errcheck // nil on cancel
	}()
	waitFor(t, 10*time.Second, "three rejected pulls", func() bool { return polls.Load() >= 3 })
	time.Sleep(300 * time.Millisecond)
	cancel()
	<-done

	// Backoff of 20 ms doubling to a 200 ms cap allows about 6 polls in
	// the first 600 ms; a hot loop would make thousands.
	n := polls.Load()
	if n > 20 {
		t.Fatalf("%d polls against a JSON origin: the replica is retrying hot", n)
	}
	// A poll in flight at the cancel is answered but not counted.
	text := scrape(t, ts.URL)
	series := `isasgd_replica_pulls_total{model="m",result="error"} `
	if !strings.Contains(text, series+fmt.Sprint(n)+"\n") && !strings.Contains(text, series+fmt.Sprint(n-1)+"\n") {
		t.Fatalf("want one error pull per poll (%d polls); got:\n%s", n, text)
	}
	out := logs.String()
	if !strings.Contains(out, "application/json") {
		t.Fatalf("log does not name the content type:\n%s", out)
	}
	if strings.Contains(out, "decoding replicate frame") {
		t.Fatalf("JSON answer reported as a broken frame:\n%s", out)
	}
	if _, ok := mgr.Registry().Get("m"); ok {
		t.Fatal("replica published a model from a JSON answer")
	}
}
