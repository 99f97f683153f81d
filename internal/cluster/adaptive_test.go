package cluster

import (
	"context"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/obs"
)

// TestCoordinatorAdaptiveConfigValidation pins the knob gate: non-finite
// or negative adaptive knobs must refuse to construct a coordinator.
func TestCoordinatorAdaptiveConfigValidation(t *testing.T) {
	for name, cfg := range map[string]CoordinatorConfig{
		"NaN adaptC":      {Dim: 4, AdaptC: math.NaN()},
		"negative adaptC": {Dim: 4, AdaptC: -1},
		"Inf lambda":      {Dim: 4, DCLambda: math.Inf(1)},
		"negative lambda": {Dim: 4, DCLambda: -0.5},
	} {
		cfg.Log = quietLogger()
		if _, err := NewCoordinator(cfg); err == nil {
			t.Errorf("%s: config accepted, want error", name)
		}
	}
}

// TestCoordinatorAttenuatesStalePush pins the coordinator-side
// staleness-adaptive schedule: an admitted push with measured τ > 0 is
// folded in scaled by exactly 1/(1+c·τ), while a fresh push (τ = 0)
// lands at full strength.
func TestCoordinatorAttenuatesStalePush(t *testing.T) {
	ds, _ := testCorpus(t)
	const c = 0.5
	coord, srv := startCoordinator(t, CoordinatorConfig{
		Dim: ds.Dim(), AdaptC: c, PollTimeout: time.Second,
	})
	// Advance three versions without moving the weights, so a push from
	// seq 1 measures τ = 3.
	zero := make([]float64, ds.Dim())
	for i := 0; i < 3; i++ {
		if err := coord.ApplyModel(zero); err != nil {
			t.Fatal(err)
		}
	}
	cl := &rpcClient{hc: srv.Client(), base: srv.URL, policy: RetryPolicy{Max: -1}.withDefaults(),
		rng: newTestRand(), log: quietLogger()}
	status, pr, err := sendPush(cl, PushRequest{Seq: 1, Idx: []int{0}, Val: []float64{1}, Updates: 1})
	if err != nil || status != http.StatusOK || !pr.Applied {
		t.Fatalf("stale push: status %d err %v applied %v", status, err, pr.Applied)
	}
	if pr.Staleness != 3 {
		t.Fatalf("measured staleness %d, want 3", pr.Staleness)
	}
	want := 1 / (1 + c*3)
	if got := coord.Store().Load().Weights[0]; got != want {
		t.Fatalf("attenuated delta landed as %g, want %g", got, want)
	}

	// A fresh push is untouched by attenuation.
	status, pr, err = sendPush(cl, PushRequest{Seq: pr.Seq, Idx: []int{1}, Val: []float64{0.25}, Updates: 1})
	if err != nil || status != http.StatusOK || !pr.Applied {
		t.Fatalf("fresh push: status %d err %v applied %v", status, err, pr.Applied)
	}
	if got := coord.Store().Load().Weights[1]; got != 0.25 {
		t.Fatalf("fresh delta landed as %g, want 0.25", got)
	}
}

// TestCoordinatorCompensatesDelayedPush pins the DC-ASGD apply path: a
// delayed push is corrected per coordinate by −λ·d²·(w_now − w_base)
// against the exact retained base version it trained from, the
// compensation is visible in stats and metrics, and a push whose base
// has aged out of the ring applies uncompensated.
func TestCoordinatorCompensatesDelayedPush(t *testing.T) {
	ds, _ := testCorpus(t)
	const lam = 0.5
	reg := obs.NewRegistry()
	coord, srv := startCoordinator(t, CoordinatorConfig{
		Dim: ds.Dim(), DCLambda: lam, PollTimeout: time.Second, Reg: reg,
	})
	cl := &rpcClient{hc: srv.Client(), base: srv.URL, policy: RetryPolicy{Max: -1}.withDefaults(),
		rng: newTestRand(), log: quietLogger()}

	// Fresh push from seq 1 moves w[0] to 0.4 and publishes seq 2. τ = 0
	// means zero drift, so compensation cannot alter it.
	status, pr, err := sendPush(cl, PushRequest{Seq: 1, Idx: []int{0}, Val: []float64{0.4}, Updates: 1})
	if err != nil || status != http.StatusOK || !pr.Applied {
		t.Fatalf("first push: status %d err %v applied %v", status, err, pr.Applied)
	}
	if got := coord.Store().Load().Weights[0]; got != 0.4 {
		t.Fatalf("fresh push landed as %g, want 0.4", got)
	}

	// Delayed push also from seq 1: it trained against w[0] = 0, but the
	// coordinate has since drifted to 0.4. d' = d − λ·d²·(now − base).
	// Computed with runtime variables so the rounding matches the
	// coordinator's (constant expressions fold at infinite precision).
	d, now := 0.2, coord.Store().Load().Weights[0]
	want := now + (d - lam*d*d*(now-0))
	status, pr, err = sendPush(cl, PushRequest{Seq: 1, Idx: []int{0}, Val: []float64{d}, Updates: 1})
	if err != nil || status != http.StatusOK || !pr.Applied {
		t.Fatalf("delayed push: status %d err %v applied %v", status, err, pr.Applied)
	}
	if got := coord.Store().Load().Weights[0]; got != want {
		t.Fatalf("compensated delta landed as %g, want %g", got, want)
	}
	if st := coord.Stats(); st.Compensated != 1 {
		t.Fatalf("compensated pushes = %d, want 1: %+v", st.Compensated, st)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "isasgd_cluster_pushes_compensated_total 1") {
		t.Fatalf("compensated counter missing from exposition:\n%s", sb.String())
	}
}

// TestCoordinatorDCBaseEvicted pins the ring-miss fallback: with a
// one-deep ring the delayed push's base version is gone, so the delta
// must apply uncompensated rather than against the wrong base.
func TestCoordinatorDCBaseEvicted(t *testing.T) {
	ds, _ := testCorpus(t)
	coord, srv := startCoordinator(t, CoordinatorConfig{
		Dim: ds.Dim(), DCLambda: 0.5, BaseDepth: 1, PollTimeout: time.Second,
	})
	cl := &rpcClient{hc: srv.Client(), base: srv.URL, policy: RetryPolicy{Max: -1}.withDefaults(),
		rng: newTestRand(), log: quietLogger()}
	if _, _, err := sendPush(cl, PushRequest{Seq: 1, Idx: []int{0}, Val: []float64{0.4}, Updates: 1}); err != nil {
		t.Fatal(err)
	}
	// Seq 1's version was evicted when seq 2 took its slot.
	if _, _, err := sendPush(cl, PushRequest{Seq: 1, Idx: []int{0}, Val: []float64{0.2}, Updates: 1}); err != nil {
		t.Fatal(err)
	}
	a, b := 0.4, 0.2
	if got := coord.Store().Load().Weights[0]; got != a+b {
		t.Fatalf("ring-miss push landed as %g, want %g (uncompensated)", got, a+b)
	}
	if st := coord.Stats(); st.Compensated != 0 {
		t.Fatalf("compensated pushes = %d, want 0 after ring miss", st.Compensated)
	}
}

// TestWorkerStepDecayValidation pins the new worker knob: 0 means no
// decay, values outside (0, 1] are rejected.
func TestWorkerStepDecayValidation(t *testing.T) {
	ds, obj := testCorpus(t)
	cfg := workerCfg(ds, obj, 0, 1, "http://127.0.0.1:1")
	cfg.StepDecay = 1.5
	if _, err := NewWorker(cfg); err == nil {
		t.Fatal("step decay 1.5 accepted, want error")
	}
	cfg.StepDecay = -0.1
	if _, err := NewWorker(cfg); err == nil {
		t.Fatal("step decay -0.1 accepted, want error")
	}
	cfg.StepDecay = 0
	if _, err := NewWorker(cfg); err != nil {
		t.Fatalf("zero step decay (no decay) rejected: %v", err)
	}
}

// TestClusterAdaptiveConverges is the end-to-end gate for the adaptive
// coordinator: workers driving a coordinator with attenuation and delay
// compensation enabled must still reach the loss target over real HTTP.
func TestClusterAdaptiveConverges(t *testing.T) {
	ds, obj := testCorpus(t)
	c, srv := startCoordinator(t, CoordinatorConfig{
		Dim: ds.Dim(), EvalData: ds, Obj: obj,
		TargetLoss: 0.45, MaxUpdates: 2_000_000,
		AdaptC: 0.05, DCLambda: 0.02, StalenessBound: 64,
		PollTimeout: time.Second, Log: quietLogger(),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const n = 2
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		w, err := NewWorker(workerCfg(ds, obj, i, n, srv.URL))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) { defer wg.Done(); errs[i] = w.Run(ctx) }(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	st := c.Stats()
	if !st.Reached {
		t.Fatalf("adaptive cluster never reached target: %+v", st)
	}
	if st.Compensated < 0 || st.Compensated > st.Applied {
		t.Fatalf("compensated count %d out of range [0, %d]", st.Compensated, st.Applied)
	}
	t.Logf("adaptive cluster: applied=%d compensated=%d updates=%d", st.Applied, st.Compensated, st.Updates)
}
