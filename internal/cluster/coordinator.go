package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/frame"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/staleness"
)

// CoordinatorConfig configures the parameter-server side of the star.
type CoordinatorConfig struct {
	// Dim is the model dimensionality; required unless Init is given.
	Dim int
	// Init seeds the weights (copied); nil starts from zero.
	Init []float64
	// InitSeq > 0 restores the store at that sequence number instead of
	// publishing fresh at seq 1 — the coordinator-restart path, so
	// long-polling workers resume where they left off. InitEpoch and
	// InitIters stamp the restored version.
	InitSeq   uint64
	InitEpoch int
	InitIters int64

	// StalenessBound sheds pushes whose measured τ = seq - push_seq
	// exceeds it; negative admits everything, 0 admits only fresh
	// pushes. Default -1 (unbounded).
	StalenessBound int64

	// AdaptC attenuates each admitted push by 1/(1+AdaptC·τ) before it
	// is folded in — the coordinator-side staleness-adaptive step
	// schedule. <= 0 disables.
	AdaptC float64
	// DCLambda enables DC-ASGD delay compensation at push-apply time:
	// each delta coordinate d becomes d − λ·d²·(w_now − w_base), where
	// w_base is the retained version the push trained from. <= 0
	// disables. A push whose base version has aged out of the retention
	// ring is applied uncompensated.
	DCLambda float64
	// BaseDepth is how many recent published versions the compensation
	// ring retains (default 64; only used when DCLambda > 0).
	BaseDepth int

	// EvalData/Obj drive the convergence gate: every EvalEvery applied
	// pushes the coordinator evaluates the published weights and stops
	// the run once the objective reaches TargetLoss (> 0) or cumulative
	// worker updates reach MaxUpdates (> 0).
	EvalData    *dataset.Dataset
	Obj         objective.Objective
	EvalEvery   int
	EvalWorkers int
	TargetLoss  float64
	MaxUpdates  int64

	// PollTimeout bounds one pull long-poll (default 25s).
	PollTimeout time.Duration

	Log *slog.Logger
	Reg *obs.Registry // nil registers nothing
}

// Coordinator owns the authoritative dense weights and the snapshot
// store workers long-poll. One goroutine per in-flight request; writes
// serialize on mu, pulls never take it.
type Coordinator struct {
	cfg   CoordinatorConfig
	store *snapshot.Store
	rec   *staleness.Recorder
	ring  *adaptive.BaseRing // nil unless DCLambda > 0
	log   *slog.Logger

	maxPush int64 // largest push frame a model of Dim accepts

	mu      sync.Mutex
	w       []float64 // authoritative weights, mutated only under mu
	applied int64     // pushes folded in
	updates int64     // cumulative worker SGD updates folded in
	bad     int64     // malformed/non-finite pushes rejected
	comp    int64     // pushes applied with DC compensation
	workers map[int]struct{}

	evalMu   sync.Mutex
	evalSeq  uint64        // seq of the version lossBits was evaluated at
	evalHist []EvalPoint   // recorded evaluations, oldest first, capped
	lossBits atomic.Uint64 // last evaluated objective (Float64bits)
	reached  atomic.Bool
	doneCh   chan struct{}
	doneOnce sync.Once

	acked   map[int]struct{} // workers that saw a Done=true response
	ackCh   chan struct{}
	ackOnce sync.Once

	m coordMetrics
}

type coordMetrics struct {
	pushApplied *obs.Counter
	pushShed    *obs.Counter
	pushBad     *obs.Counter
	pushComp    *obs.Counter
	pulls       *obs.Counter
	stale       *obs.Histogram
	seq         *obs.Gauge
	updates     *obs.Counter
	loss        *obs.Gauge
}

// NewCoordinator validates cfg and seeds the store with the initial
// version so the first worker pull returns immediately.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Init) > 0 {
		if cfg.Dim != 0 && cfg.Dim != len(cfg.Init) {
			return nil, fmt.Errorf("cluster: Dim %d contradicts len(Init) %d", cfg.Dim, len(cfg.Init))
		}
		cfg.Dim = len(cfg.Init)
	}
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("cluster: coordinator needs Dim > 0 or initial weights")
	}
	if cfg.StalenessBound == 0 {
		cfg.StalenessBound = -1
	}
	if err := (adaptive.Policy{AdaptC: cfg.AdaptC, DCLambda: cfg.DCLambda}).Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.BaseDepth <= 0 {
		cfg.BaseDepth = 64
	}
	if cfg.PollTimeout <= 0 {
		cfg.PollTimeout = 25 * time.Second
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 1
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	c := &Coordinator{
		cfg:     cfg,
		store:   snapshot.NewStore(),
		rec:     staleness.NewRecorder(cfg.StalenessBound),
		log:     cfg.Log,
		maxPush: maxPushFrame(cfg.Dim),
		w:       make([]float64, cfg.Dim),
		workers: map[int]struct{}{},
		acked:   map[int]struct{}{},
		doneCh:  make(chan struct{}),
		ackCh:   make(chan struct{}),
	}
	if cfg.DCLambda > 0 {
		c.ring = adaptive.NewBaseRing(cfg.BaseDepth)
	}
	copy(c.w, cfg.Init)
	c.lossBits.Store(math.Float64bits(math.NaN()))
	if r := cfg.Reg; r != nil {
		pushes := r.CounterVec("isasgd_cluster_pushes_total",
			"Worker pushes by verdict: applied into the model, shed for exceeding the staleness bound, or bad (malformed/non-finite).", "result")
		c.m.pushApplied = pushes.With("applied")
		c.m.pushShed = pushes.With("shed")
		c.m.pushBad = pushes.With("bad")
		c.m.pushComp = r.Counter("isasgd_cluster_pushes_compensated_total",
			"Applied pushes whose delta received the DC-ASGD delay compensation against their retained base version.")
		c.m.pulls = r.Counter("isasgd_cluster_pulls_total",
			"Model pull requests served (including empty long-poll expiries).")
		c.m.stale = r.Summary("isasgd_cluster_push_staleness",
			"Measured per-push staleness: coordinator seq minus the seq the push trained from (the cross-machine SME delay tau).", 1)
		c.m.seq = r.Gauge("isasgd_cluster_seq",
			"Current published model sequence number.")
		c.m.updates = r.Counter("isasgd_cluster_updates_total",
			"Worker SGD updates folded into the global model.")
		c.m.loss = r.Gauge("isasgd_cluster_loss",
			"Last evaluated training objective of the published model.")
		c.m.loss.Set(math.NaN())
	}
	var v *snapshot.Version
	var err error
	if cfg.InitSeq > 0 {
		v, err = c.store.Restore(cfg.InitSeq, cfg.InitEpoch, cfg.InitIters, c.w)
		if err != nil {
			return nil, err
		}
		c.applied = int64(cfg.InitEpoch)
		c.updates = cfg.InitIters
	} else {
		if v = c.store.PublishCopy(0, 0, c.w); v == nil {
			return nil, fmt.Errorf("cluster: initial weights are non-finite")
		}
	}
	c.retain(v)
	if c.m.seq != nil {
		c.m.seq.Set(float64(v.Seq))
	}
	return c, nil
}

// retain remembers a published version in the DC base ring so a later
// push trained from it can be compensated against the exact weights it
// read. No-op when delay compensation is off.
func (c *Coordinator) retain(v *snapshot.Version) {
	if c.ring != nil {
		c.ring.Add(v)
	}
}

// Store exposes the underlying snapshot store (serving readers, tests).
func (c *Coordinator) Store() *snapshot.Store { return c.store }

// Done is closed when the run reaches its loss target or update budget.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

func (c *Coordinator) isDone() bool {
	select {
	case <-c.doneCh:
		return true
	default:
		return false
	}
}

func (c *Coordinator) markDone() { c.doneOnce.Do(func() { close(c.doneCh) }) }

// DoneAcked is closed once the run is done AND every worker that ever
// pushed has received a Done=true response — the signal that an
// exit-on-done coordinator can stop serving without stranding workers
// mid-protocol (their next RPC would hit a closed port).
func (c *Coordinator) DoneAcked() <-chan struct{} { return c.ackCh }

// ackDone records that worker just saw Done=true; when every known
// worker has, DoneAcked fires. An acking worker registers as a member
// even if none of its pushes were applied (pull-only or shed-only
// nodes), and the quorum is membership-based — every member must ack —
// so a bystander's ack can never satisfy the quorum on behalf of a
// worker that has not yet seen Done.
func (c *Coordinator) ackDone(worker int) {
	if worker < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = struct{}{}
	c.acked[worker] = struct{}{}
	for id := range c.workers {
		if _, ok := c.acked[id]; !ok {
			return
		}
	}
	c.ackOnce.Do(func() { close(c.ackCh) })
}

func (c *Coordinator) lastLoss() float64 { return math.Float64frombits(c.lossBits.Load()) }

// wireLoss maps not-yet-evaluated (NaN) and other non-representable
// losses to -1: JSON has no NaN/Inf encoding and these objectives are
// nonnegative, so negative unambiguously means "unknown".
func wireLoss(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return -1
	}
	return f
}

// Stats snapshots the run state.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	applied, updates, bad, comp, seen := c.applied, c.updates, c.bad, c.comp, len(c.workers)
	c.mu.Unlock()
	st := c.rec.Stats()
	return Stats{
		Seq:         c.store.Seq(),
		Applied:     applied,
		Shed:        st.Shed,
		Bad:         bad,
		Compensated: comp,
		Updates:     updates,
		Loss:        c.lastLoss(),
		Reached:     c.reached.Load(),
		Done:        c.isDone(),
		MaxTau:      st.Max,
		MeanTau:     st.Mean,
		Workers:     seen,
		TargetObj:   c.cfg.TargetLoss,
	}
}

// EvalPoint is one recorded convergence-gate evaluation: the objective
// of the published model after a given number of applied pushes and
// folded-in worker updates.
type EvalPoint struct {
	Applied int64   `json:"applied"`
	Updates int64   `json:"updates"`
	Loss    float64 `json:"loss"`
}

// evalHistoryCap bounds the retained evaluation trajectory; runs long
// enough to overflow it keep their earliest points (the experiments
// that read the history finish far below the cap).
const evalHistoryCap = 1 << 16

// History returns a copy of the recorded evaluation trajectory, oldest
// first — the loss after each gate evaluation, in the order recordEval
// accepted them (monotone in model seq). Experiments use it to measure
// sustained convergence rather than first touch of a target.
func (c *Coordinator) History() []EvalPoint {
	c.evalMu.Lock()
	defer c.evalMu.Unlock()
	return append([]EvalPoint(nil), c.evalHist...)
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/pull", c.handlePull)
	mux.HandleFunc("/v1/cluster/push", c.handlePush)
	mux.HandleFunc("/v1/cluster/stats", c.handleStats)
	return mux
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := c.Stats()
	st.Loss = wireLoss(st.Loss)
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handlePull(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	var since uint64
	if s := q.Get("since"); s != "" {
		var err error
		if since, err = strconv.ParseUint(s, 10, 64); err != nil {
			writeErr(w, http.StatusBadRequest, "bad since: "+err.Error())
			return
		}
	}
	worker := -1
	if s := q.Get("worker"); s != "" {
		if id, err := strconv.Atoi(s); err == nil {
			worker = id
		}
	}
	wire, err := parseWire(q.Get("wire"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if c.m.pulls != nil {
		c.m.pulls.Inc()
	}
	// Wait for something newer, bounded by the poll window and woken
	// early if the run completes (workers must learn Done promptly even
	// when no further version will ever be published).
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.PollTimeout)
	defer cancel()
	go func() {
		select {
		case <-c.doneCh:
			cancel()
		case <-ctx.Done():
		}
	}()
	v := c.store.Wait(ctx, since)
	if v == nil {
		v = c.store.Load() // window expired or done: answer with current state
	}
	resp := PullResponse{Seq: v.Seq, Epoch: v.Epoch, Iters: v.Iters,
		Done: c.isDone(), Loss: wireLoss(c.lastLoss()), Wire: wire}
	if v.Seq > since {
		resp.Weights = v.Weights
	}
	if resp.Done {
		c.ackDone(worker)
	}
	writeFrame(w, appendPull(nil, &resp))
}

func (c *Coordinator) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// The buffer grows only with the bytes that arrive, never to a
	// declared Content-Length up front.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.maxPush))
	if err != nil {
		c.rejectBad(w, "reading push: "+err.Error())
		return
	}
	req, err := decodePush(body, len(c.w))
	if err != nil {
		c.rejectBad(w, err.Error())
		return
	}

	cur := c.store.Seq()
	tau := int64(cur) - int64(req.Seq)
	if tau < 0 {
		// The worker's base seq is ahead of us — a coordinator restarted
		// without a -state checkpoint resets below surviving workers.
		// That is a protocol skew, not a malformed push: answer with the
		// shed-style resync verdict so the worker re-pulls and rejoins
		// (422 would be terminal and strand every survivor).
		if c.m.pushShed != nil {
			c.m.pushShed.Inc()
		}
		c.log.Warn("push seq ahead of coordinator, resync",
			"worker", req.Worker, "push_seq", req.Seq, "seq", cur)
		if c.isDone() {
			c.ackDone(req.Worker)
		}
		writeJSON(w, http.StatusConflict, PushResponse{
			Seq: cur, Applied: false, Staleness: tau,
			Done: c.isDone(), Loss: wireLoss(c.lastLoss())})
		return
	}
	admit := c.rec.Observe(tau)
	if c.m.stale != nil {
		c.m.stale.Observe(tau)
	}
	if !admit {
		if c.m.pushShed != nil {
			c.m.pushShed.Inc()
		}
		c.log.LogAttrs(r.Context(), slog.LevelInfo, "push shed: staleness over bound",
			slog.Int("worker", req.Worker), slog.Int64("tau", tau),
			slog.Int64("bound", c.rec.Bound()))
		if c.isDone() {
			c.ackDone(req.Worker)
		}
		writeJSON(w, http.StatusConflict, PushResponse{
			Seq: cur, Applied: false, Staleness: tau,
			Done: c.isDone(), Loss: wireLoss(c.lastLoss())})
		return
	}

	// Staleness-adaptive attenuation damps the whole delta by
	// 1/(1+c·τ) before anything reads it; the buffer is request-local,
	// so this needs no lock.
	adaptive.AttenuateDelta(req.Val, c.cfg.AdaptC, tau)

	c.mu.Lock()
	// Delay compensation rewrites the delta against the exact base
	// version the worker trained from, using the current authoritative
	// weights — both only coherent under mu, and it must precede the
	// finiteness pre-check so the checked values are the applied ones.
	compensated := false
	if c.ring != nil && tau > 0 {
		if base := c.ring.Get(req.Seq); base != nil {
			adaptive.CompensateDelta(req.Idx, req.Val, c.w, base.Weights, c.cfg.DCLambda)
			compensated = true
		}
	}
	// Reject, atomically, any delta that would drive a coordinate
	// non-finite: a diverged worker must not poison the global model
	// (the snapshot store would refuse the publish, but by then the
	// authoritative vector would already be damaged). The frame's indices
	// are strictly increasing, so each coordinate is touched exactly once
	// and this per-entry check is exactly the post-apply value.
	for k, j := range req.Idx {
		if nv := c.w[j] + req.Val[k]; math.IsNaN(nv) || math.IsInf(nv, 0) {
			c.mu.Unlock()
			c.rejectBadf(w, "delta drives coordinate %d non-finite", j)
			return
		}
	}
	for k, j := range req.Idx {
		c.w[j] += req.Val[k]
	}
	c.applied++
	c.updates += req.Updates
	if compensated {
		c.comp++
	}
	c.workers[req.Worker] = struct{}{}
	applied, updates := c.applied, c.updates
	v := c.store.PublishCopy(int(applied), updates, c.w)
	if v == nil {
		// Unreachable given the pre-check above, but never serve or keep
		// a poisoned vector: roll the authoritative weights back to the
		// last published (known-finite) version and refuse the push.
		last := c.store.Load()
		copy(c.w, last.Weights)
		c.applied--
		c.updates -= req.Updates
		if compensated {
			c.comp--
		}
		c.mu.Unlock()
		c.log.Error("publish rejected after pre-checked push, rolled back",
			"worker", req.Worker, "seq", last.Seq)
		c.rejectBadf(w, "push drove the model non-finite")
		return
	}
	c.retain(v)
	c.mu.Unlock()

	if c.m.pushApplied != nil {
		c.m.pushApplied.Inc()
		c.m.updates.Add(req.Updates)
		c.m.seq.Set(float64(v.Seq))
		if compensated {
			c.m.pushComp.Inc()
		}
	}

	// Evaluate outside the lock on the immutable published version;
	// recordEval keeps concurrent out-of-order completions from letting
	// a stale version's loss overwrite a newer one's.
	loss := c.lastLoss()
	if c.cfg.EvalData != nil && c.cfg.Obj != nil && applied%int64(c.cfg.EvalEvery) == 0 {
		ev := metrics.Evaluate(c.cfg.EvalData, c.cfg.Obj, v.Weights, c.cfg.EvalWorkers)
		if c.recordEval(v.Seq, ev.Obj, applied, updates) {
			loss = ev.Obj
		} else {
			loss = c.lastLoss()
		}
	}
	if c.cfg.MaxUpdates > 0 && updates >= c.cfg.MaxUpdates {
		c.markDone()
	}
	if c.isDone() {
		c.ackDone(req.Worker)
	}
	writeJSON(w, http.StatusOK, PushResponse{
		Seq: v.Seq, Applied: true, Staleness: tau,
		Done: c.isDone(), Loss: wireLoss(loss)})
}

// recordEval stores an evaluation of the version at seq, refusing to
// let a stale version's result overwrite a newer one's: pushes evaluate
// concurrently outside mu, so completions can arrive out of order. The
// target-loss gate only ever acts on the newest recorded evaluation.
// It reports whether the result was recorded.
func (c *Coordinator) recordEval(seq uint64, loss float64, applied, updates int64) bool {
	c.evalMu.Lock()
	defer c.evalMu.Unlock()
	if seq <= c.evalSeq {
		return false
	}
	c.evalSeq = seq
	if len(c.evalHist) < evalHistoryCap {
		c.evalHist = append(c.evalHist, EvalPoint{Applied: applied, Updates: updates, Loss: loss})
	}
	c.lossBits.Store(math.Float64bits(loss))
	if c.m.loss != nil {
		c.m.loss.Set(loss)
	}
	if c.cfg.TargetLoss > 0 && loss <= c.cfg.TargetLoss {
		c.reached.Store(true)
		c.log.Info("loss target reached",
			"loss", loss, "target", c.cfg.TargetLoss,
			"pushes", applied, "updates", updates)
		c.markDone()
	}
	return true
}

func (c *Coordinator) rejectBad(w http.ResponseWriter, msg string) {
	c.mu.Lock()
	c.bad++
	c.mu.Unlock()
	if c.m.pushBad != nil {
		c.m.pushBad.Inc()
	}
	c.log.Warn("push rejected", "reason", msg)
	writeErr(w, http.StatusUnprocessableEntity, msg)
}

func (c *Coordinator) rejectBadf(w http.ResponseWriter, format string, args ...any) {
	c.rejectBad(w, fmt.Sprintf(format, args...))
}

// Checkpoint returns the current (seq, applied pushes, updates, weights
// copy) for persistence; a restarted coordinator passes them back as
// InitSeq/InitEpoch/InitIters/Init.
func (c *Coordinator) Checkpoint() (seq uint64, applied int64, updates int64, w []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store.Seq(), c.applied, c.updates, append([]float64(nil), c.w...)
}

// ApplyModel folds a dense weight vector in directly (tests, seeding
// from a trained model). It publishes like a push but bypasses
// staleness accounting.
func (c *Coordinator) ApplyModel(w []float64) error {
	if len(w) != len(c.w) {
		return fmt.Errorf("cluster: dim mismatch: %d vs %d", len(w), len(c.w))
	}
	if j := model.FirstNonFinite(w); j >= 0 {
		return fmt.Errorf("cluster: non-finite weight at %d", j)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	copy(c.w, w)
	c.retain(c.store.PublishCopy(int(c.applied), c.updates, c.w))
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// writeFrame answers 200 with a binary frame.
func writeFrame(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", frame.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}
