package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/frame"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/xrand"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestRand() *xrand.Rand { return xrand.New(1) }

// atomic503 counts handler invocations for the retry tests.
type atomic503 struct{ n atomic.Int64 }

func (a *atomic503) next() int64 { return a.n.Add(1) }
func (a *atomic503) set(v int64) { a.n.Store(v) }

func testCorpus(t *testing.T) (*dataset.Dataset, objective.Objective) {
	t.Helper()
	ds, err := dataset.Synthesize(dataset.Small(7))
	if err != nil {
		t.Fatal(err)
	}
	return ds, objective.LogisticL1{Eta: 1e-4}
}

// startCoordinator spins up a coordinator behind an httptest server.
func startCoordinator(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = quietLogger()
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

func workerCfg(ds *dataset.Dataset, obj objective.Objective, id, n int, url string) WorkerConfig {
	return WorkerConfig{
		ID: id, Workers: n, Coordinator: url,
		Data: ds, Obj: obj, Seed: 42,
		Threads: 1, LocalEpochs: 1, Step: 0.5,
		PollTimeout: 2 * time.Second,
		Retry:       RetryPolicy{Max: 3, Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
		Log:         quietLogger(),
	}
}

// runCluster drives n workers, each running threads local workers, at
// step against a fresh coordinator until the target is reached (or the
// update budget runs out) and returns the coordinator's final stats and the updates to target: the update count
// of the first published version whose loss reaches it, or -1. The
// coordinator's gate scores versions off the push path and may skip
// some, so its final count also holds the updates pushed while it
// caught up; every version is scored here instead.
func runCluster(t *testing.T, n, threads int, step, target float64, maxUpdates int64) (Stats, int64) {
	t.Helper()
	ds, obj := testCorpus(t)
	c, srv := startCoordinator(t, CoordinatorConfig{
		Dim: ds.Dim(), EvalData: ds, Obj: obj,
		TargetLoss: target, MaxUpdates: maxUpdates,
		PollTimeout: time.Second, Log: quietLogger(),
	})
	var (
		mu       sync.Mutex
		versions []*snapshot.Version
	)
	c.Store().SetOnPublish(func(v *snapshot.Version) {
		mu.Lock()
		versions = append(versions, v)
		mu.Unlock()
	})
	// A star on this corpus lasts a few milliseconds, about as long as
	// building a worker or dialing its first connection. So every worker
	// is built first, each gets its own transport and dials it with a
	// warm-up request, and none starts until all are connected. Otherwise
	// the first worker to start runs the opening rounds alone.
	workers := make([]*Worker, n)
	for i := range workers {
		cfg := workerCfg(ds, obj, i, n, srv.URL)
		cfg.Step, cfg.Threads = step, threads
		tr := &http.Transport{}
		t.Cleanup(tr.CloseIdleConnections)
		cfg.HTTPClient = &http.Client{Transport: tr}
		var err error
		if workers[i], err = NewWorker(cfg); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg, ready sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, n)
	for i, w := range workers {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = warmUp(w.cfg.HTTPClient, srv.URL)
			ready.Done()
			<-start
			if errs[i] == nil {
				errs[i] = w.Run(ctx)
			}
		}()
	}
	ready.Wait()
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, v := range versions {
		if metrics.Evaluate(ds, obj, v.Weights, 1).Loss <= target {
			return c.Stats(), v.Iters
		}
	}
	return c.Stats(), -1
}

// warmUp opens hc's connection to the coordinator and leaves it idle in
// the pool for the worker's first pull.
func warmUp(hc *http.Client, base string) error {
	resp, err := hc.Get(base + "/v1/cluster/stats")
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err
}

// TestClusterConverges is the end-to-end happy path: two workers drive
// the global model to the loss target over real HTTP.
func TestClusterConverges(t *testing.T) {
	st, _ := runCluster(t, 2, 1, 0.5, 0.45, 2_000_000)
	if !st.Reached {
		t.Fatalf("2-worker cluster never reached target: %+v", st)
	}
	if st.Applied == 0 || st.Updates == 0 {
		t.Fatalf("no work accounted: %+v", st)
	}
	if st.Workers != 2 {
		t.Fatalf("workers seen = %d, want 2", st.Workers)
	}
}

// TestClusterWorkerThreads runs the star with two local threads per
// worker. A multi-worker engine stores its model in a relabelled layout
// (core.Engine), so every pulled version is loaded and every pushed
// delta taken through the engine's translation; a slip there scrambles
// the coordinates the star exchanges, and it would not reach its target.
// Two threads share an atomic model, so the race detector runs it too.
func TestClusterWorkerThreads(t *testing.T) {
	st, _ := runCluster(t, 2, 2, 0.5, 0.45, 2_000_000)
	if !st.Reached {
		t.Fatalf("2-worker cluster at 2 threads never reached target: %+v", st)
	}
}

// TestTwoWorkersNoSlowerInUpdates is the scaling gate this sandbox can
// actually measure (single-core hosts can't show wall-clock wins): two
// workers must reach the target without materially more global updates
// than one worker — staleness is not allowed to destroy update quality.
//
// The stars run at step 0.1, not the 0.5 of the other tests. At 0.5 the
// two-worker star makes about 13 pushes in about 4 ms, one OS scheduler
// tick: a worker whose thread loses the CPU for one tick sits out most of
// the run, and the other converges alone on half the data, which is not
// staleness. At 0.1 it makes about 57 pushes, so one tick is a small
// share of the run, and more pushes are stale, not fewer: mean staleness
// stays about 0.45 (0.44 at 0.1, 0.46 at 0.5) over four times the pushes.
func TestTwoWorkersNoSlowerInUpdates(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence comparison")
	}
	const step, target = 0.1, 0.45
	one, oneUpdates := runCluster(t, 1, 1, step, target, 4_000_000)
	two, twoUpdates := runCluster(t, 2, 1, step, target, 4_000_000)
	if !one.Reached || !two.Reached || oneUpdates < 0 || twoUpdates < 0 {
		t.Fatalf("runs did not converge: 1w=%+v 2w=%+v", one, two)
	}
	if float64(twoUpdates) > 1.5*float64(oneUpdates) {
		t.Fatalf("2 workers needed %d updates vs %d for 1 (>1.5x)", twoUpdates, oneUpdates)
	}
	t.Logf("updates to target: 1 worker %d, 2 workers %d (mean staleness %.2f, max %d)",
		oneUpdates, twoUpdates, two.MeanTau, two.MaxTau)
}

// TestZeroDeltaRoundStillPushes pins the all-zero round: at a step so
// small that no coordinate moves, the round's delta is empty, but its
// updates must still reach the coordinator. A worker that skipped the
// push would then long-poll for a version only its own push could
// publish, and the star would stall until the context expired.
func TestZeroDeltaRoundStillPushes(t *testing.T) {
	ds, obj := testCorpus(t)
	c, srv := startCoordinator(t, CoordinatorConfig{
		Dim: ds.Dim(), MaxUpdates: int64(ds.N()), PollTimeout: time.Second,
	})
	cfg := workerCfg(ds, obj, 0, 1, srv.URL)
	cfg.Step = 5e-324 // the smallest positive float64: every step rounds to zero
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker did not finish: %v (coordinator %+v)", err, c.Stats())
	}
	st := c.Stats()
	if st.Applied != 1 || st.Updates != int64(ds.N()) || st.Seq != 2 {
		t.Fatalf("zero-delta round not accounted: %+v, want 1 push of %d updates at seq 2", st, ds.N())
	}
	for j, v := range c.Store().Load().Weights {
		if v != 0 {
			t.Fatalf("coordinate %d moved to %g: the round was not all-zero", j, v)
		}
	}
}

// TestWorkerCrashMidPush models a worker dying mid-request: a truncated
// push body must be rejected without touching the model, and the
// cluster must keep converging afterwards.
func TestWorkerCrashMidPush(t *testing.T) {
	ds, obj := testCorpus(t)
	reg := obs.NewRegistry()
	c, srv := startCoordinator(t, CoordinatorConfig{
		Dim: ds.Dim(), EvalData: ds, Obj: obj,
		TargetLoss: 0.45, MaxUpdates: 2_000_000,
		PollTimeout: time.Second, Reg: reg, Log: quietLogger(),
	})
	before := c.Store().Seq()

	// Half a frame, then the "connection" ends.
	frame := appendPush(nil, &PushRequest{Seq: 1, Idx: []int{1, 2}, Val: []float64{0.5, 0.25}})
	if status := postRaw(t, srv, frame[:len(frame)/2]); status != http.StatusUnprocessableEntity {
		t.Fatalf("truncated push got status %d, want 422", status)
	}
	if got := c.Store().Seq(); got != before {
		t.Fatalf("truncated push advanced seq %d -> %d", before, got)
	}
	if st := c.Stats(); st.Bad != 1 {
		t.Fatalf("bad pushes = %d, want 1", st.Bad)
	}

	// The survivor still drives the run home.
	w, err := NewWorker(workerCfg(ds, obj, 0, 1, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); !st.Reached {
		t.Fatalf("cluster did not recover after crashed push: %+v", st)
	}
	// The bad push is visible in the exported metrics.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `isasgd_cluster_pushes_total{result="bad"} 1`) {
		t.Fatalf("bad-push counter missing from exposition:\n%s", sb.String())
	}
}

// TestStalePushShedAndRejoin pins the staleness bound: a push computed
// against an ancient version is shed with 409 (never applied), and the
// worker protocol path recovers by resyncing.
func TestStalePushShedAndRejoin(t *testing.T) {
	ds, _ := testCorpus(t)
	c, srv := startCoordinator(t, CoordinatorConfig{
		Dim: ds.Dim(), StalenessBound: 2,
		PollTimeout: time.Second, Log: quietLogger(),
	})
	// Advance the coordinator 4 versions past seq 1.
	w0 := make([]float64, ds.Dim())
	for i := 0; i < 4; i++ {
		w0[i] = 1
		if err := c.ApplyModel(w0); err != nil {
			t.Fatal(err)
		}
	}
	cur := c.Store().Seq()

	// A push from seq 1 now has tau = cur-1 > 2: shed.
	cl := &rpcClient{hc: srv.Client(), base: srv.URL, policy: RetryPolicy{}.withDefaults(),
		rng: newTestRand(), log: quietLogger()}
	status, pr, err := sendPush(cl, PushRequest{Worker: 0, Seq: 1, Idx: []int{0}, Val: []float64{0.25}, Updates: 10})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusConflict || pr.Applied {
		t.Fatalf("stale push: status %d applied %v, want 409/false", status, pr.Applied)
	}
	if pr.Staleness != int64(cur)-1 {
		t.Fatalf("reported staleness %d, want %d", pr.Staleness, int64(cur)-1)
	}
	if st := c.Stats(); st.Shed != 1 || st.Applied != 0 {
		t.Fatalf("stats after shed: %+v", st)
	}

	// Rejoin: a fresh push against the current seq is admitted.
	status, pr, err = sendPush(cl, PushRequest{Worker: 0, Seq: cur, Idx: []int{0}, Val: []float64{0.25}, Updates: 10})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || !pr.Applied {
		t.Fatalf("fresh push after shed: status %d applied %v", status, pr.Applied)
	}
}

// TestCoordinatorRestartResume kills the coordinator, restores a new
// one from its checkpoint, and verifies a worker holding the old seq
// resumes without re-observing history.
func TestCoordinatorRestartResume(t *testing.T) {
	ds, obj := testCorpus(t)
	c1, srv1 := startCoordinator(t, CoordinatorConfig{
		Dim: ds.Dim(), PollTimeout: time.Second, Log: quietLogger(),
	})
	// Some progress before the crash.
	w0 := make([]float64, ds.Dim())
	w0[3] = 0.5
	if err := c1.ApplyModel(w0); err != nil {
		t.Fatal(err)
	}
	seq, applied, updates, weights := c1.Checkpoint()
	srv1.Close()

	c2, srv2 := startCoordinator(t, CoordinatorConfig{
		Init: weights, InitSeq: seq, InitEpoch: int(applied), InitIters: updates,
		EvalData: ds, Obj: obj, TargetLoss: 0.45, MaxUpdates: 2_000_000,
		PollTimeout: time.Second, Log: quietLogger(),
	})
	if got := c2.Store().Seq(); got != seq {
		t.Fatalf("restored seq = %d, want %d", got, seq)
	}
	if got := c2.Store().Load().Weights[3]; got != 0.5 {
		t.Fatalf("restored weights lost progress: w[3] = %g", got)
	}

	// A worker that already holds seq must long-poll (nothing newer),
	// not be re-fed history.
	cl := &rpcClient{hc: srv2.Client(), base: srv2.URL, policy: RetryPolicy{}.withDefaults(),
		rng: newTestRand(), log: quietLogger()}
	pull, _, err := cl.pull(context.Background(), "wire=f64", seq, 3*time.Second, make([]float64, ds.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	if pull.Weights != nil || pull.Seq != seq {
		t.Fatalf("pull at restored seq returned seq %d weights %d, want empty at %d",
			pull.Seq, len(pull.Weights), seq)
	}

	// And the cluster trains on from the restored state to the target.
	w, err := NewWorker(workerCfg(ds, obj, 0, 1, srv2.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if !st.Reached {
		t.Fatalf("restored cluster did not reach target: %+v", st)
	}
	if st.Seq <= seq {
		t.Fatalf("seq did not advance past restored %d: %+v", seq, st)
	}
	ev := metrics.Evaluate(ds, obj, c2.Store().Load().Weights, 1)
	if math.IsNaN(ev.Loss) || ev.Loss > 0.45 {
		t.Fatalf("final model loss %g over target", ev.Loss)
	}
}

// TestWorkerStepRules pins the one step and step-decay rule on
// NewWorker: a non-finite step and a decay outside (0, 1], NaN
// included, are refused.
func TestWorkerStepRules(t *testing.T) {
	ds, obj := testCorpus(t)
	for name, mut := range map[string]func(*WorkerConfig){
		"NaN step":      func(c *WorkerConfig) { c.Step = math.NaN() },
		"+Inf step":     func(c *WorkerConfig) { c.Step = math.Inf(1) },
		"zero step":     func(c *WorkerConfig) { c.Step = 0 },
		"NaN decay":     func(c *WorkerConfig) { c.StepDecay = math.NaN() },
		"decay above 1": func(c *WorkerConfig) { c.StepDecay = 1.5 },
	} {
		cfg := workerCfg(ds, obj, 0, 1, "http://127.0.0.1:1")
		mut(&cfg)
		if _, err := NewWorker(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestTargetLossReadsHoldoutLoss runs a 1-worker star whose target is a
// hold-out data loss the star reaches, at an η where the stated
// objective (loss + η‖w‖₁) never comes down to it: the gate reads the
// loss the kernels minimize, so the run stops on Reached, not on its
// update budget.
func TestTargetLossReadsHoldoutLoss(t *testing.T) {
	full, err := dataset.Synthesize(dataset.Small(7))
	if err != nil {
		t.Fatal(err)
	}
	train, hold, err := full.SplitTrainTest(0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-3}
	const target = 0.55
	c, srv := startCoordinator(t, CoordinatorConfig{
		Dim: train.Dim(), EvalData: hold, Obj: obj,
		TargetLoss: target, MaxUpdates: 40 * int64(train.N()),
		PollTimeout: time.Second,
	})
	w, err := NewWorker(workerCfg(train, obj, 0, 1, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if !st.Reached || st.Loss > target {
		t.Fatalf("star did not stop on the hold-out loss target %g: %+v", target, st)
	}
	ev := metrics.Evaluate(hold, obj, c.Store().Load().Weights, 1)
	if ev.Loss > target || ev.Obj <= target {
		t.Fatalf("hold-out loss %g, objective %g: want loss <= %g < objective", ev.Loss, ev.Obj, target)
	}
}

// TestRetryBackoffRecovers pins the RPC retry loop: a coordinator that
// 503s twice then answers is transparently survived, with attempts
// accounted.
func TestRetryBackoffRecovers(t *testing.T) {
	var calls atomic503
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.next() <= 2 {
			writeErr(w, http.StatusServiceUnavailable, "warming up")
			return
		}
		writeVersion(w, frame.Header{Seq: 1}, []float64{1, 2})
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	cl := &rpcClient{hc: srv.Client(), base: srv.URL,
		policy: RetryPolicy{Max: 5, Base: time.Millisecond, Cap: 5 * time.Millisecond, Timeout: time.Second},
		rng:    newTestRand(), log: quietLogger()}
	pr, attempts, err := cl.pull(context.Background(), "", 0, time.Second, make([]float64, 2))
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if pr.Seq != 1 || len(pr.Weights) != 2 {
		t.Fatalf("decoded %+v", pr)
	}

	// Retries are bounded: a permanent 503 fails terminally.
	cl2 := &rpcClient{hc: srv.Client(), base: srv.URL,
		policy: RetryPolicy{Max: 1, Base: time.Millisecond, Cap: 2 * time.Millisecond, Timeout: time.Second},
		rng:    newTestRand(), log: quietLogger()}
	calls.set(-1000) // stay in the failing regime
	_, attempts, err = cl2.pull(context.Background(), "", 0, time.Second, make([]float64, 2))
	if err == nil {
		t.Fatal("permanent 503 did not surface an error")
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (1 + Max)", attempts)
	}
}

// TestPushStatusMapping pins the push's answers through the shared
// status mapping: a 409 shed is a verdict, a 503 retries, and a 4xx
// rejection is terminal at once and carries the coordinator's message.
func TestPushStatusMapping(t *testing.T) {
	var calls atomic503
	status := http.StatusConflict
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case status == http.StatusConflict:
			writeJSON(w, status, PushResponse{Seq: 4})
		case calls.next() == 1:
			writeErr(w, http.StatusServiceUnavailable, "warming up")
		default:
			writeErr(w, status, "bad frame")
		}
	}))
	defer srv.Close()
	cl := &rpcClient{hc: srv.Client(), base: srv.URL,
		policy: RetryPolicy{Max: 5, Base: time.Millisecond, Cap: 5 * time.Millisecond, Timeout: time.Second},
		rng:    newTestRand(), log: quietLogger()}
	if got, resp, attempts, err := cl.push(context.Background(), nil); err != nil || got != status ||
		resp.Seq != 4 || attempts != 1 {
		t.Fatalf("409: status %d, %+v, %d attempts, %v; want the shed verdict", got, resp, attempts, err)
	}
	status = http.StatusUnprocessableEntity
	got, _, attempts, err := cl.push(context.Background(), nil)
	var se *frame.StatusError
	if !errors.As(err, &se) || se.Msg != "bad frame" || got != status || attempts != 2 {
		t.Fatalf("503 then 422: status %d, %d attempts, %v; want one retry, then the 422 and its message",
			got, attempts, err)
	}
}

// TestPushValidation sweeps malformed push frames: every one must 422
// without touching the model. Each case lies in one field; the cases the
// JSON encoding had (length mismatch, negative or duplicate index,
// negative worker, a literal that overflows to Inf, a wrong type) are
// here as the frame's forms of the same lie.
func TestPushValidation(t *testing.T) {
	ds, _ := testCorpus(t)
	c, srv := startCoordinator(t, CoordinatorConfig{Dim: ds.Dim(), PollTimeout: time.Second})
	dim := uint64(ds.Dim())
	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty body", nil},
		{"fewer values than count", pushHead(0, 1, 0, 8, 2).uv(1, 1).f64(1).b},
		{"index out of range", pushHead(0, 1, 0, 8, 1).uv(dim + 1).f64(1).b},
		{"zero first gap (index -1)", pushHead(0, 1, 0, 8, 1).uv(0).f64(1).b},
		{"worker id overflows int", pushHead(1<<63, 1, 0, 8, 1).uv(1).f64(1).b},
		{"update count overflows int64", pushHead(0, 1, 1<<63, 8, 1).uv(1).f64(1).b},
		{"duplicate index", pushHead(0, 1, 0, 8, 2).uv(1, 0).f64(1, 1).b},
		{"duplicate overflow", pushHead(0, 1, 0, 8, 2).uv(1, 0).f64(math.MaxFloat64, math.MaxFloat64).b},
		{"count over Dim", pushHead(0, 1, 0, 8, dim+1).uv(1).f64(1).b},
		{"count over body", pushHead(0, 1, 0, 8, dim).uv(1).f64(1).b},
		{"trailing bytes", pushHead(0, 1, 0, 8, 1).uv(1).f64(1).raw(0).b},
		{"non-shortest varint", frameOf(0x80, 0x00).uv(1, 0).raw(8).uv(1, 1).f64(1).b},
		{"value width 2", pushHead(0, 1, 0, 2, 1).uv(1).raw(0, 0).b},
		{"+Inf value", pushHead(0, 1, 0, 8, 1).uv(1).f64(math.Inf(1)).b},
		{"NaN value", pushHead(0, 1, 0, 8, 1).uv(1).f64(math.NaN()).b},
		{"a JSON body", []byte(`{"seq":1,"idx":[0],"val":[1]}`)},
	}
	for _, tc := range cases {
		if status := postRaw(t, srv, tc.frame); status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422", tc.name, status)
		}
	}
	if st := c.Stats(); st.Bad != int64(len(cases)) || st.Applied != 0 {
		t.Fatalf("stats after malformed sweep: %+v (want %d bad)", st, len(cases))
	}
	if c.Store().Seq() != 1 {
		t.Fatalf("malformed pushes advanced seq to %d", c.Store().Seq())
	}

	// Finite deltas whose sum overflows are caught at apply time, before
	// the authoritative vector is damaged: the first huge push is finite
	// and admitted, the second would overflow coordinate 0 to +Inf.
	cl := &rpcClient{hc: srv.Client(), base: srv.URL, policy: RetryPolicy{Max: -1}.withDefaults(),
		rng: newTestRand(), log: quietLogger()}
	huge := PushRequest{Seq: 1, Idx: []int{0}, Val: []float64{math.MaxFloat64}}
	status, pr, err := sendPush(cl, huge)
	if err != nil || !pr.Applied {
		t.Fatalf("first huge push: status %d err %v applied %v", status, err, pr.Applied)
	}
	huge.Seq = pr.Seq
	if status, _, _ = sendPush(cl, huge); status != http.StatusUnprocessableEntity {
		t.Fatalf("overflowing push: status %d, want 422", status)
	}
	if w0 := c.Store().Load().Weights[0]; math.IsInf(w0, 0) || math.IsNaN(w0) {
		t.Fatalf("overflowing push poisoned the model: w[0] = %g", w0)
	}
	// The model must still accept publishes after every attack above —
	// a poisoned authoritative vector would reject them all forever.
	fresh := PushRequest{Seq: c.Store().Seq(), Idx: []int{1}, Val: []float64{0.5}}
	status, pr, err = sendPush(cl, fresh)
	if err != nil || status != http.StatusOK || !pr.Applied {
		t.Fatalf("push after malformed sweep: status %d err %v applied %v", status, err, pr.Applied)
	}
}

// TestSeqAheadPushResync pins the restart-without-checkpoint path: a
// push whose base seq is ahead of the coordinator (survivors of a
// coordinator that restarted at seq 1) must get the 409 resync verdict,
// not a terminal 422, so workers rejoin instead of dying.
func TestSeqAheadPushResync(t *testing.T) {
	ds, _ := testCorpus(t)
	c, srv := startCoordinator(t, CoordinatorConfig{Dim: ds.Dim(), PollTimeout: time.Second})
	cl := &rpcClient{hc: srv.Client(), base: srv.URL, policy: RetryPolicy{Max: -1}.withDefaults(),
		rng: newTestRand(), log: quietLogger()}
	status, pr, err := sendPush(cl, PushRequest{Seq: 99, Idx: []int{0}, Val: []float64{1}, Updates: 5})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusConflict || pr.Applied {
		t.Fatalf("seq-ahead push: status %d applied %v, want 409/false", status, pr.Applied)
	}
	if pr.Staleness >= 0 || pr.Seq != 1 {
		t.Fatalf("seq-ahead verdict: staleness %d seq %d, want negative staleness at seq 1", pr.Staleness, pr.Seq)
	}
	if st := c.Stats(); st.Bad != 0 || st.Applied != 0 {
		t.Fatalf("seq-ahead push miscounted: %+v", st)
	}
	// The resynced worker's next push against the real seq is admitted.
	status, pr, err = sendPush(cl, PushRequest{Seq: pr.Seq, Idx: []int{0}, Val: []float64{1}, Updates: 5})
	if err != nil || status != http.StatusOK || !pr.Applied {
		t.Fatalf("rejoin push: status %d err %v applied %v", status, err, pr.Applied)
	}
}

// TestWorkerResyncsAfterCoordinatorRegression drives the worker loop
// against a fake coordinator that answers a push with a 409 whose seq
// is behind the worker's: the worker must reset its pull cursor to 0
// (full re-pull) instead of long-polling for a seq that may never come.
func TestWorkerResyncsAfterCoordinatorRegression(t *testing.T) {
	ds, obj := testCorpus(t)
	weights := make([]float64, ds.Dim())
	var pulls atomic.Int64
	var resyncSince atomic.Int64
	resyncSince.Store(-1)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/cluster/pull":
			n := pulls.Add(1)
			since, _ := strconv.ParseInt(r.URL.Query().Get("since"), 10, 64)
			if n == 1 {
				// First pull: hand out a high seq, as if from a
				// long-lived previous coordinator incarnation.
				writeVersion(w, frame.Header{Seq: 50}, weights)
				return
			}
			// After the regression verdict: record the cursor the worker
			// came back with and end the run.
			resyncSince.Store(since)
			writeVersion(w, frame.Header{Seq: 51, Done: true}, weights)
		case "/v1/cluster/push":
			// Restarted coordinator: back at seq 1, behind the worker.
			writeJSON(w, http.StatusConflict, PushResponse{Seq: 1, Applied: false, Staleness: -49})
		default:
			writeErr(w, http.StatusNotFound, r.URL.Path)
		}
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	wk, err := NewWorker(workerCfg(ds, obj, 0, 1, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := wk.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := resyncSince.Load(); got != 0 {
		t.Fatalf("worker re-pulled with since=%d after coordinator regression, want 0", got)
	}
	if st := wk.Stats(); st.Shed != 1 {
		t.Fatalf("regression verdict not counted as shed: %+v", st)
	}
}

// TestWorkerRewindsOnPullRegression drives the worker loop against a
// fake coordinator whose sequence regresses between pulls: the first
// pull answers seq 50 with weights, and later pulls at since=50 answer
// empty at seq 1, as a coordinator restarted without -state does once
// its poll window passes. The worker must rewind its cursor to 0 and
// re-pull the current version, not poll for seq 50 again.
func TestWorkerRewindsOnPullRegression(t *testing.T) {
	ds, obj := testCorpus(t)
	weights := make([]float64, ds.Dim())
	var pulls, stale atomic.Int64
	var rewound atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/cluster/pull":
			since := r.URL.Query().Get("since")
			switch {
			case pulls.Add(1) == 1:
				writeVersion(w, frame.Header{Seq: 50}, weights)
			case since == "0":
				rewound.Store(true)
				writeVersion(w, frame.Header{Seq: 1, Done: true}, weights)
			case stale.Add(1) < 5:
				writeVersion(w, frame.Header{Seq: 1}, nil)
			default:
				// A worker that never rewinds would poll forever: end it.
				writeVersion(w, frame.Header{Seq: 1, Done: true}, nil)
			}
		case "/v1/cluster/push":
			writeJSON(w, http.StatusOK, PushResponse{Seq: 51, Applied: true})
		default:
			writeErr(w, http.StatusNotFound, r.URL.Path)
		}
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	wk, err := NewWorker(workerCfg(ds, obj, 0, 1, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := wk.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if !rewound.Load() {
		t.Fatalf("worker re-polled since=50 %d times after the coordinator answered seq 1; want a rewind to 0",
			stale.Load())
	}
}

// TestPullQueryValidation pins the pull endpoint's query parameters: a
// malformed since, wire or worker is a JSON 400. A bad worker id used to
// drop the caller from the done-ack quorum silently.
func TestPullQueryValidation(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorConfig{Dim: 4, PollTimeout: time.Second})
	for _, tc := range []struct{ name, query string }{
		{"since", "since=x"},
		{"negative since", "since=-1"},
		{"wire", "wire=bf16"},
		{"worker", "worker=abc"},
		{"negative worker", "worker=-2"},
	} {
		resp, err := srv.Client().Get(srv.URL + "/v1/cluster/pull?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Content-Type") != "application/json" ||
			err != nil || eb.Error == "" {
			t.Fatalf("bad %s (%s): status %d, Content-Type %q, error %q (%v); want a JSON 400",
				tc.name, tc.query, resp.StatusCode, resp.Header.Get("Content-Type"), eb.Error, err)
		}
	}
}

// TestDoneAckQuorumMembers pins the done-ack quorum: acks from workers
// whose pushes were never applied (pull-only, shed-only) must not
// satisfy the quorum on behalf of a member that has not seen Done.
func TestDoneAckQuorumMembers(t *testing.T) {
	ds, _ := testCorpus(t)
	c, _ := startCoordinator(t, CoordinatorConfig{Dim: ds.Dim(), PollTimeout: time.Second})
	c.mu.Lock()
	c.workers[0] = struct{}{} // worker 0's push was applied
	c.mu.Unlock()
	c.markDone()
	c.ackDone(1) // shed-only bystander acks first
	c.ackDone(2) // and another
	select {
	case <-c.DoneAcked():
		t.Fatal("DoneAcked fired before member worker 0 acked")
	default:
	}
	c.ackDone(0)
	select {
	case <-c.DoneAcked():
	default:
		t.Fatal("DoneAcked did not fire once every member acked")
	}
}

// TestStalenessBound pins the coordinator's staleness accounting, one
// row per bound: a push is shed iff its τ exceeds a bound ≥ 0, MaxTau
// counts shed pushes too, and MeanTau averages the admitted ones only.
// A bound of 0 is the zero value and, like −1, admits everything.
func TestStalenessBound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bound int64
		taus  []int64
		admit []bool
		shed  int64
		max   int64
		mean  float64
	}{
		{"bound -1 admits all", -1, []int64{0, 5, 9}, []bool{true, true, true}, 0, 9, 14.0 / 3},
		{"bound 0 (unset) admits all", 0, []int64{0, 5, 9}, []bool{true, true, true}, 0, 9, 14.0 / 3},
		{"tau over bound 4 sheds, at it admits", 4, []int64{4, 5, 2}, []bool{true, false, true}, 1, 5, 3},
		{"bound 1 sheds every push over it", 1, []int64{2, 0, 3}, []bool{false, true, false}, 2, 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, srv := startCoordinator(t, CoordinatorConfig{Dim: 4, StalenessBound: tc.bound, PollTimeout: time.Second})
			for i := 0; i < 10; i++ { // seq 11: room for every τ
				if err := c.ApplyModel([]float64{float64(i), 0, 0, 0}); err != nil {
					t.Fatal(err)
				}
			}
			cl := &rpcClient{hc: srv.Client(), base: srv.URL, policy: RetryPolicy{}.withDefaults(),
				rng: newTestRand(), log: quietLogger()}
			for i, tau := range tc.taus {
				seq := c.Store().Seq() - uint64(tau)
				status, pr, err := sendPush(cl, PushRequest{Seq: seq, Idx: []int{1}, Val: []float64{0.25}, Updates: 1})
				if err != nil {
					t.Fatal(err)
				}
				if pr.Applied != tc.admit[i] || (status == http.StatusOK) != tc.admit[i] || pr.Staleness != tau {
					t.Fatalf("push at τ=%d: status %d applied %v staleness %d, want admitted=%v",
						tau, status, pr.Applied, pr.Staleness, tc.admit[i])
				}
			}
			st := c.Stats()
			if st.Shed != tc.shed || st.MaxTau != tc.max || math.Abs(st.MeanTau-tc.mean) > 1e-12 {
				t.Fatalf("stats shed=%d max=%d mean=%g, want %d/%d/%g", st.Shed, st.MaxTau, st.MeanTau, tc.shed, tc.max, tc.mean)
			}
		})
	}
}

// TestStalenessBoundConcurrent races pushes that all trained from seq 1
// against a bound of 10. τ is measured under the same lock as the apply,
// so exactly the pushes that find seq 1…11 are admitted, whatever the
// interleaving, and every push is accounted once.
func TestStalenessBoundConcurrent(t *testing.T) {
	c, srv := startCoordinator(t, CoordinatorConfig{Dim: 4, StalenessBound: 10, PollTimeout: time.Second})
	const senders, per = 8, 8
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &rpcClient{hc: srv.Client(), base: srv.URL, policy: RetryPolicy{}.withDefaults(),
				rng: newTestRand(), log: quietLogger()}
			for i := 0; i < per; i++ {
				if _, _, err := sendPush(cl, PushRequest{Worker: s, Seq: 1, Idx: []int{s % 4}, Val: []float64{0.01}, Updates: 1}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Applied+st.Shed+st.Bad != senders*per {
		t.Fatalf("lost pushes: applied %d + shed %d + bad %d != %d", st.Applied, st.Shed, st.Bad, senders*per)
	}
	if st.Applied != 11 || st.MaxTau != 11 || st.MeanTau != 5 {
		t.Fatalf("stats %+v, want 11 applied, max τ 11, mean τ 5", st)
	}
}

// gatedLoss is the test objective whose Loss waits for gate to close, so
// a test can hold the coordinator's evaluator mid-evaluation; entered
// fires on its first call.
type gatedLoss struct {
	objective.LogisticL1
	gate    <-chan struct{}
	entered func()
}

func (g gatedLoss) Loss(z, y float64) float64 {
	g.entered()
	<-g.gate
	return g.LogisticL1.Loss(z, y)
}

// TestEvalNeverBlocksPush holds the evaluator inside an evaluation and
// pushes through it: pushes answer 200 while it is blocked, and once
// released it skips to the newest version, whose loss is the one it
// records and the one that reaches the target and ends the run. The
// deltas walk the model to −k·d, back to 0, then to +k·d, with d the
// label-weighted mean row, so only the last version is under target.
func TestEvalNeverBlocksPush(t *testing.T) {
	ds, _ := testCorpus(t)
	plain := objective.LogisticL1{Eta: 1e-4}
	d := make([]float64, ds.Dim())
	for i := 0; i < ds.N(); i++ {
		row := ds.X.Row(i)
		for k, j := range row.Idx {
			d[j] += ds.Y[i] * row.Val[k] / float64(ds.N())
		}
	}
	var idx []int
	var val []float64
	for j, v := range d {
		if v != 0 {
			idx, val = append(idx, j), append(val, v)
		}
	}
	times := func(k float64) []float64 {
		out := make([]float64, len(val))
		for i, v := range val {
			out[i] = k * v
		}
		return out
	}
	lossAt := func(w []float64) float64 { return metrics.Evaluate(ds, plain, w, 1).Loss }
	lossAtK := func(k float64) float64 {
		w := make([]float64, ds.Dim())
		for i, j := range idx {
			w[j] = k * val[i]
		}
		return lossAt(w)
	}
	bad, zero, good := lossAtK(-1), lossAtK(0), lossAtK(1)
	target := (zero + good) / 2
	if !(good < zero && zero < bad) {
		t.Fatalf("deltas do not order the losses: bad %g, zero %g, good %g", bad, zero, good)
	}

	gate, entered := make(chan struct{}), make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	defer release() // a failing test must not strand the evaluator
	c, srv := startCoordinator(t, CoordinatorConfig{
		Dim: ds.Dim(), EvalData: ds, EvalEvery: 1, EvalWorkers: 1, TargetLoss: target,
		Obj:         gatedLoss{plain, gate, func() { enterOnce.Do(func() { close(entered) }) }},
		PollTimeout: time.Second,
	})
	cl := &rpcClient{hc: srv.Client(), base: srv.URL, policy: RetryPolicy{}.withDefaults(),
		rng: newTestRand(), log: quietLogger()}
	push := func(seq uint64, k float64) PushResponse {
		t.Helper()
		type answer struct {
			status int
			pr     PushResponse
			err    error
		}
		done := make(chan answer, 1)
		go func() {
			status, pr, err := sendPush(cl, PushRequest{Seq: seq, Idx: idx, Val: times(k), Updates: 1})
			done <- answer{status, pr, err}
		}()
		select {
		case a := <-done:
			if a.err != nil || a.status != http.StatusOK || !a.pr.Applied {
				t.Fatalf("push at seq %d: status %d applied %v err %v", seq, a.status, a.pr.Applied, a.err)
			}
			return a.pr
		case <-time.After(10 * time.Second):
			release()
			t.Fatalf("push at seq %d blocked behind the evaluation", seq)
		}
		return PushResponse{}
	}

	push(1, -1) // starts the evaluator on seq 2
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the evaluator never started")
	}
	push(2, 1)
	if pr := push(3, 1); pr.Seq != 4 || pr.Done || pr.Loss != -1 {
		t.Fatalf("push during the evaluation answered %+v, want seq 4, not done, no loss yet", pr)
	}
	release()
	select {
	case <-c.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("target %g never reached: %+v", target, c.Stats())
	}
	for c.evaluating.Load() {
		runtime.Gosched()
	}
	st := c.Stats()
	if want := lossAt(c.Store().Load().Weights); !st.Reached || st.Loss != want || st.Seq != 4 {
		t.Fatalf("stats %+v: want reached with the loss %g of seq 4", st, want)
	}
}
