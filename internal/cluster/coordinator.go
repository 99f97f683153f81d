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
	"github.com/isasgd/isasgd/internal/spec"
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
	// exceeds it, the SME-motivated guardrail (An, Lu & Ying; PAPERS.md):
	// a push staler than the bound re-pulls instead of applying a
	// gradient computed against a model that has since moved too far.
	// 0 (unset) or negative admits everything.
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

	// EvalData/Obj drive the convergence gate: once EvalEvery pushes
	// have been applied since the last version it scored, an evaluator
	// off the push path scores the newest published version, and the run
	// stops once the mean data loss on EvalData (metrics.Eval.Loss, the
	// term the sparse kernels minimize) reaches TargetLoss (> 0), or
	// cumulative worker updates reach MaxUpdates (> 0).
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
	ring  *adaptive.BaseRing // nil unless DCLambda > 0
	log   *slog.Logger

	maxPush int64 // largest push frame a model of Dim accepts

	mu      sync.Mutex
	w       []float64 // authoritative weights, mutated only under mu
	applied int64     // pushes folded in
	updates int64     // cumulative worker SGD updates folded in
	bad     int64     // malformed/non-finite pushes rejected
	comp    int64     // pushes applied with DC compensation
	shed    int64     // pushes over the staleness bound
	maxTau  int64     // largest measured τ, shed pushes included
	tauSum  int64     // τ summed over admitted pushes
	tauN    int64     // pushes admitted since start (applied counts restored ones)
	workers map[int]struct{}

	// Membership, under mu: workers holds the IDs seen on a pull, an
	// applied push or a done-ack; k is the run's worker count K, 0 while
	// unknown, taken from the first admitted pull that declares one (see
	// join); startCh, the start barrier, closes once IDs 0…k−1 have all
	// been seen.
	k         int
	startCh   chan struct{}
	startOnce sync.Once
	// pushed holds the workers with an applied push, and opened the time
	// of the first admitted pull from a worker, under mu: finish ends the
	// run only once every member is in pushed or a poll window has
	// passed since opened.
	pushed map[int]struct{}
	opened time.Time

	// The evaluator: at most one goroutine runs it (evaluating), so it is
	// the only writer of scored, lossBits and reached.
	evaluating atomic.Bool
	scored     atomic.Int64  // applied pushes of the last version scored
	lossBits   atomic.Uint64 // last evaluated data loss (Float64bits)
	reached    atomic.Bool
	finishing  atomic.Bool // the loss target or the update budget was met
	doneCh     chan struct{}
	doneOnce   sync.Once

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

// CoordinatorFromSpec compiles a validated cluster spec into the
// training half of a CoordinatorConfig, evaluating on evalData; the
// caller adds the stop targets, restored state and transport. It
// validates nothing: spec.Spec.Validate has.
func CoordinatorFromSpec(s spec.Spec, evalData *dataset.Dataset) CoordinatorConfig {
	obj, _ := objective.Parse(s.Objective, s.Eta)
	return CoordinatorConfig{
		Dim: evalData.Dim(), StalenessBound: s.StalenessBound,
		AdaptC: s.AdaptC, DCLambda: s.DCLambda,
		EvalData: evalData, Obj: obj, EvalEvery: s.EvalEvery,
	}
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
	for _, err := range []error{adaptive.CheckNonNegative("AdaptC", cfg.AdaptC), adaptive.CheckNonNegative("DCLambda", cfg.DCLambda)} {
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
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
		log:     cfg.Log,
		maxPush: maxPushFrame(cfg.Dim),
		w:       make([]float64, cfg.Dim),
		workers: map[int]struct{}{},
		pushed:  map[int]struct{}{},
		startCh: make(chan struct{}),
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
			"Last evaluated mean data loss of the published model on the hold-out.")
		c.m.loss.Set(math.NaN())
	}
	var v *snapshot.Version
	var err error
	if cfg.InitSeq > 0 {
		// Restore keeps the slice it is given, and c.w goes on changing.
		v, err = c.store.Restore(cfg.InitSeq, cfg.InitEpoch, cfg.InitIters, append([]float64(nil), c.w...))
		if err != nil {
			return nil, err
		}
		c.applied = int64(cfg.InitEpoch)
		c.updates = cfg.InitIters
		c.scored.Store(c.applied)
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

// finish marks the run done once it has met its loss target or update
// budget and every member has had a push applied, or one poll window
// has passed since the first worker pulled. The start barrier lines the
// members' first pulls up, but a round can take microseconds, so without
// the first condition one member could push, be scored and end the run
// before another's first round; the window keeps a member that never
// shows up from holding the run.
func (c *Coordinator) finish() {
	if !c.finishing.Load() || c.isDone() {
		return
	}
	c.mu.Lock()
	ok := c.allIn(c.pushed) || !c.opened.IsZero() && time.Since(c.opened) >= c.cfg.PollTimeout
	c.mu.Unlock()
	if ok {
		c.markDone()
	}
}

// DoneAcked is closed once the run is done AND every member has
// received a Done=true response — the signal that an exit-on-done
// coordinator can stop serving without stranding workers mid-protocol
// (their next RPC would hit a closed port). The members are IDs 0…K−1
// once the worker count K is known, and the workers seen so far before
// (see join).
func (c *Coordinator) DoneAcked() <-chan struct{} { return c.ackCh }

// ackDone records that worker just saw Done=true; when every member
// has, DoneAcked fires. An acking worker registers as seen even if none
// of its pushes were applied (pull-only or shed-only nodes), and the
// quorum is membership-based — every member must ack — so a bystander's
// ack can never satisfy the quorum on behalf of a worker that has not
// yet seen Done.
func (c *Coordinator) ackDone(worker int) {
	if worker < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = struct{}{}
	c.acked[worker] = struct{}{}
	if c.allIn(c.acked) {
		c.ackOnce.Do(func() { close(c.ackCh) })
	}
}

// allIn reports whether set holds every member: IDs 0…k−1 once the
// worker count is known, every worker seen before. Callers hold mu.
func (c *Coordinator) allIn(set map[int]struct{}) bool {
	if c.k > 0 {
		for id := 0; id < c.k; id++ {
			if _, ok := set[id]; !ok {
				return false
			}
		}
		return true
	}
	for id := range c.workers {
		if _, ok := set[id]; !ok {
			return false
		}
	}
	return true
}

// join admits a pull from worker (−1 when the puller gave no ID) that
// declares a run of declared workers (0 when it declared none), and
// opens the start barrier once IDs 0…k−1 have all been seen.
//
// The worker count K is the first admitted declaration: a declaring
// pull must carry an ID inside its own count and agree with K once K is
// known, so a refused pull never fixes K. cluster.Worker declares on
// every pull. Until a declaration arrives, and for good when no client
// declares, the members are the workers seen so far, which is racy: a
// worker that reaches the target before another's first request lets
// an exit-on-done coordinator close its port under the late worker, and
// the late worker may find the run done before its first round.
func (c *Coordinator) join(worker, declared int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if declared > 0 {
		if worker < 0 || worker >= declared {
			return fmt.Errorf("worker count %d needs a worker id in 0…%d", declared, declared-1)
		}
		if c.k > 0 && declared != c.k {
			return fmt.Errorf("worker count %d contradicts the run's %d", declared, c.k)
		}
	}
	if err := c.checkID(worker); err != nil {
		return err
	}
	if c.k == 0 {
		c.k = declared
	}
	if worker >= 0 {
		c.workers[worker] = struct{}{}
		if c.opened.IsZero() {
			c.opened = time.Now()
		}
	}
	if c.k > 0 && c.allIn(c.workers) {
		c.startOnce.Do(func() { close(c.startCh) })
	}
	return nil
}

// checkID refuses a worker ID outside 0…k−1 once the worker count is
// known. Callers hold mu.
func (c *Coordinator) checkID(worker int) error {
	if c.k > 0 && worker >= c.k {
		return fmt.Errorf("worker %d outside the run's ids 0…%d", worker, c.k-1)
	}
	return nil
}

// awaitStart is the start barrier of a worker's first pull: it returns
// once every member has pulled, the run is done, the poll window has
// passed or ctx is done. It returns at once while the worker count is
// unknown.
func (c *Coordinator) awaitStart(ctx context.Context) {
	c.mu.Lock()
	k := c.k
	c.mu.Unlock()
	if k == 0 {
		return
	}
	t := time.NewTimer(c.cfg.PollTimeout)
	defer t.Stop()
	select {
	case <-c.startCh:
	case <-c.doneCh:
	case <-t.C:
	case <-ctx.Done():
	}
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
	defer c.mu.Unlock()
	st := Stats{
		Seq:         c.store.Seq(),
		Applied:     c.applied,
		Shed:        c.shed,
		Bad:         c.bad,
		Compensated: c.comp,
		Updates:     c.updates,
		Loss:        c.lastLoss(),
		Reached:     c.reached.Load(),
		Done:        c.isDone(),
		MaxTau:      c.maxTau,
		Workers:     len(c.workers),
		TargetLoss:  c.cfg.TargetLoss,
	}
	if c.tauN > 0 {
		st.MeanTau = float64(c.tauSum) / float64(c.tauN)
	}
	return st
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

// handlePull serves the coordinator's version feed (frame.Serve): the
// poll wakes early once the run is done, so workers learn Done promptly
// even when no further version will ever be published.
func (c *Coordinator) handlePull(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	worker := -1
	if s := q.Get("worker"); s != "" {
		id, err := strconv.Atoi(s)
		if err != nil || id < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad worker %q: want a worker id ≥ 0", s))
			return
		}
		worker = id
	}
	declared := 0
	if s := q.Get("workers"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad workers %q: want a worker count ≥ 1", s))
			return
		}
		declared = n
	}
	wire, err := parseWire(q.Get("wire"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := c.join(worker, declared); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if s := q.Get("since"); worker >= 0 && (s == "" || s == "0") {
		c.awaitStart(r.Context())
	}
	c.finish()
	frame.Serve(w, r, c.store, c.cfg.PollTimeout, c.doneCh, func() frame.Header {
		if c.m.pulls != nil {
			c.m.pulls.Inc()
		}
		done := c.isDone()
		if done {
			c.ackDone(worker)
		}
		return frame.Header{Done: done, Loss: wireLoss(c.lastLoss()), DType: wire}
	})
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

	c.mu.Lock()
	if err := c.checkID(req.Worker); err != nil {
		c.mu.Unlock()
		c.reject(w, http.StatusBadRequest, err.Error())
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
		c.mu.Unlock()
		c.log.Warn("push seq ahead of coordinator, resync",
			"worker", req.Worker, "push_seq", req.Seq, "seq", cur)
		c.resync(w, req.Worker, cur, tau)
		return
	}
	if c.m.stale != nil {
		c.m.stale.Observe(tau)
	}
	c.maxTau = max(c.maxTau, tau)
	if c.cfg.StalenessBound >= 0 && tau > c.cfg.StalenessBound {
		c.shed++
		c.mu.Unlock()
		c.log.LogAttrs(r.Context(), slog.LevelInfo, "push shed: staleness over bound",
			slog.Int("worker", req.Worker), slog.Int64("tau", tau),
			slog.Int64("bound", c.cfg.StalenessBound))
		c.resync(w, req.Worker, cur, tau)
		return
	}
	c.tauN++
	c.tauSum += tau

	// Staleness-adaptive attenuation damps the whole delta by
	// 1/(1+c·τ) before anything reads it.
	adaptive.AttenuateDelta(req.Val, c.cfg.AdaptC, tau)
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
	c.pushed[req.Worker] = struct{}{}
	updates := c.updates
	v := c.store.PublishCopy(int(c.applied), updates, c.w)
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
	if c.evalDue(v) && c.evaluating.CompareAndSwap(false, true) {
		go c.evaluate()
	}
	if c.cfg.MaxUpdates > 0 && updates >= c.cfg.MaxUpdates {
		c.finishing.Store(true)
	}
	c.finish()
	if c.isDone() {
		c.ackDone(req.Worker)
	}
	writeJSON(w, http.StatusOK, PushResponse{
		Seq: v.Seq, Applied: true, Staleness: tau,
		Done: c.isDone(), Loss: wireLoss(c.lastLoss())})
}

// resync answers a push that was not applied — over the staleness bound,
// or from a seq ahead of the coordinator's — with the 409 that sends its
// worker back to pull the current version.
func (c *Coordinator) resync(w http.ResponseWriter, worker int, seq uint64, tau int64) {
	if c.m.pushShed != nil {
		c.m.pushShed.Inc()
	}
	if c.isDone() {
		c.ackDone(worker)
	}
	writeJSON(w, http.StatusConflict, PushResponse{
		Seq: seq, Applied: false, Staleness: tau,
		Done: c.isDone(), Loss: wireLoss(c.lastLoss())})
}

// evalDue reports whether the convergence gate should score v: it has
// hold-out data, the run is not done, and at least EvalEvery pushes have
// been applied since the version it scored last.
func (c *Coordinator) evalDue(v *snapshot.Version) bool {
	return c.cfg.EvalData != nil && c.cfg.Obj != nil && !c.isDone() &&
		int64(v.Epoch)-c.scored.Load() >= int64(c.cfg.EvalEvery)
}

// evaluate is the convergence gate, off the push path. A push starts it
// when an evaluation is due and none is running, so an idle coordinator
// owns no goroutine. It scores the newest published version, skipping
// the ones it could not keep up with, until it has caught up or the run
// is done. Being the only writer, it records losses in seq order.
func (c *Coordinator) evaluate() {
	for {
		v := c.store.Load()
		if !c.evalDue(v) {
			c.evaluating.Store(false)
			// A push that published after the Load above found the flag
			// still set and left its version to this goroutine: take it
			// back, unless a newer evaluator already has.
			if !c.evalDue(c.store.Load()) || !c.evaluating.CompareAndSwap(false, true) {
				return
			}
			continue
		}
		loss := metrics.Evaluate(c.cfg.EvalData, c.cfg.Obj, v.Weights, c.cfg.EvalWorkers).Loss
		c.scored.Store(int64(v.Epoch))
		c.lossBits.Store(math.Float64bits(loss))
		if c.m.loss != nil {
			c.m.loss.Set(loss)
		}
		if c.cfg.TargetLoss > 0 && loss <= c.cfg.TargetLoss {
			if !c.reached.Swap(true) {
				c.log.Info("loss target reached",
					"loss", loss, "target", c.cfg.TargetLoss,
					"pushes", v.Epoch, "updates", v.Iters)
			}
			c.finishing.Store(true)
			c.finish()
		}
	}
}

func (c *Coordinator) rejectBad(w http.ResponseWriter, msg string) {
	c.reject(w, http.StatusUnprocessableEntity, msg)
}

// reject counts a push the coordinator refuses as bad and answers it
// with status and msg.
func (c *Coordinator) reject(w http.ResponseWriter, status int, msg string) {
	c.mu.Lock()
	c.bad++
	c.mu.Unlock()
	if c.m.pushBad != nil {
		c.m.pushBad.Inc()
	}
	c.log.Warn("push rejected", "reason", msg)
	writeErr(w, status, msg)
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
