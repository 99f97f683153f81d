package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"github.com/isasgd/isasgd/internal/frame"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/xrand"
)

// This file is the serving fleet's replication layer. The origin side is
// GET /v1/replicate (served by Server, see server.go): each model's
// store is a version feed served by frame.Serve, the handler behind the
// cluster coordinator's pull endpoint too. The replica side is
// Replicator: a discovery loop that mirrors the origin's model list plus
// one puller goroutine per model that follows its feed with frame.Pull,
// republishes fresher versions into the local registry at the origin's
// sequence numbers (Store.Restore), and maintains the replication-lag
// telemetry.
//
// Replica-local models carry no objective implementation (the origin's
// objective arrives as a name, not code), so their labels fall back to
// sign(score) — which is exactly what every shipped objective's Predict
// computes, so replica predictions match the origin's bit for bit.

// ReplicatorConfig configures a replica's pull loop.
type ReplicatorConfig struct {
	// Origin is the base URL of the server to mirror, e.g.
	// "http://10.0.0.1:8080". Required.
	Origin string
	// Registry is the local registry mirrored models are published into.
	// Required.
	Registry *Registry
	// Interval is the model-list discovery cadence (new models appear,
	// deleted models withdraw, crashed pullers restart). Default 1s.
	Interval time.Duration
	// PollWindow is the client-side ceiling on one long-poll request;
	// it should exceed the origin's ReplicateWindow so the origin, not
	// the client, ends an empty poll. Default 40s.
	PollWindow time.Duration
	// RetryBase/RetryCap bound the exponential backoff (with jitter)
	// a puller sleeps between failed pulls — an origin restart is
	// survived by simply retrying into it. Defaults 100ms / 5s.
	RetryBase time.Duration
	RetryCap  time.Duration
	// Client is the HTTP client for all origin traffic; nil uses a
	// dedicated client with sane connection reuse.
	Client *http.Client
	// Log receives replication events; nil discards them.
	Log *slog.Logger
	// Seed seeds the backoff jitter.
	Seed uint64
}

func (c ReplicatorConfig) withDefaults() ReplicatorConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.PollWindow <= 0 {
		c.PollWindow = 40 * time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Replicator mirrors every model of an origin server into a local
// registry. Run drives a discovery loop (GET /v1/models on Interval)
// that starts one puller goroutine per model; each puller long-polls
// GET /v1/replicate?model=…&since=… and applies fresher versions with
// Store.Restore, preserving the origin's sequence numbers — a replica
// therefore converges to the origin's exact Seq, and a long-poll cursor
// survives both replica and origin restarts:
//
//   - transport errors retry forever with capped jittered backoff
//     (frame.Backoff), so a rebooting origin is rejoined as soon as it
//     listens again; a frame that fails to decode or breaks the feed's
//     cursor rule, and a 200 that is not a frame at all (an origin older
//     than the frame answers JSON), back off the same way, one error
//     pull each;
//   - an origin that came back with a reset sequence (restarted without
//     its checkpoint) answers polls with Seq below the replica's cursor;
//     the feed's cursor rule (frame.Pull) rewinds the cursor to 0, and
//     the next pull republishes the model over a fresh store.
//
// Telemetry (on the registry's obs): isasgd_replica_seq{model} — the
// last applied sequence number; isasgd_replica_lag_seconds{model} —
// origin publish → local apply for the newest version, 0 once a poll
// confirmed the replica is current; isasgd_replica_pulls_total{model,
// result=applied|current|reset|error}. The same lag surfaces per model
// on /v1/models (ModelInfo.Lag).
type Replicator struct {
	cfg ReplicatorConfig

	seqGauge *obs.GaugeVec
	lagGauge *obs.GaugeVec
	pulls    *obs.CounterVec

	mu      sync.Mutex
	pullers map[string]*puller
	wg      sync.WaitGroup
}

type puller struct {
	cancel context.CancelFunc
	done   chan struct{}
	dim    atomic.Int64 // the model's Dim on the origin's last listing
}

// NewReplicator validates cfg and registers the replication telemetry on
// the registry's metrics registry.
func NewReplicator(cfg ReplicatorConfig) (*Replicator, error) {
	if cfg.Origin == "" {
		return nil, fmt.Errorf("serve: replicator needs an origin URL")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("serve: replicator needs a registry")
	}
	if _, err := url.Parse(cfg.Origin); err != nil {
		return nil, fmt.Errorf("serve: bad origin URL %q: %w", cfg.Origin, err)
	}
	cfg = cfg.withDefaults()
	o := cfg.Registry.Obs()
	return &Replicator{
		cfg: cfg,
		seqGauge: o.GaugeVec("isasgd_replica_seq",
			"Last weight-version sequence number applied from the origin, per model.", "model"),
		lagGauge: o.GaugeVec("isasgd_replica_lag_seconds",
			"Replication lag: origin publish to local apply of the newest version (0 when confirmed current).", "model"),
		pulls: o.CounterVec("isasgd_replica_pulls_total",
			"Replication pulls by outcome.", "model", "result"),
		pullers: make(map[string]*puller),
	}, nil
}

// Run mirrors the origin until ctx ends, then stops every puller and
// returns nil (shutdown is the expected exit). Discovery failures are
// logged and retried on the next interval — they never abort the loop.
func (r *Replicator) Run(ctx context.Context) error {
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		list, err := r.fetchModels(ctx)
		switch {
		case ctx.Err() != nil:
			// Fall through to shutdown below.
		case err != nil:
			r.cfg.Log.Warn("replica: model discovery failed", "origin", r.cfg.Origin, "error", err)
		default:
			r.reconcile(ctx, list)
		}
		select {
		case <-ctx.Done():
			r.mu.Lock()
			for _, p := range r.pullers {
				p.cancel()
			}
			r.mu.Unlock()
			r.wg.Wait()
			return nil
		case <-t.C:
		}
	}
}

// reconcile diffs the origin's model list against the running pullers:
// new names get a puller, vanished names lose theirs and the local copy.
func (r *Replicator) reconcile(ctx context.Context, list []ModelInfo) {
	want := make(map[string]int, len(list)) // name → Dim
	for _, info := range list {
		if info.Dim < 0 || info.Dim > maxModelDim {
			r.cfg.Log.Warn("replica: model not mirrored: dim outside the replica's limit",
				"model", info.Name, "dim", info.Dim, "limit", maxModelDim)
			continue
		}
		want[info.Name] = info.Dim
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, p := range r.pullers {
		select {
		case <-p.done: // puller exited on its own; forget it, maybe restart below
			delete(r.pullers, name)
			continue
		default:
		}
		if dim, ok := want[name]; ok {
			p.dim.Store(int64(dim))
		} else {
			p.cancel()
			delete(r.pullers, name)
			if r.cfg.Registry.Delete(name) {
				r.cfg.Log.Info("replica: model withdrawn (deleted on origin)", "model", name)
			}
		}
	}
	for name, dim := range want {
		if _, ok := r.pullers[name]; ok {
			continue
		}
		pctx, cancel := context.WithCancel(ctx)
		p := &puller{cancel: cancel, done: make(chan struct{})}
		p.dim.Store(int64(dim))
		r.pullers[name] = p
		r.wg.Add(1)
		go func(name string) {
			defer r.wg.Done()
			defer close(p.done)
			r.pull(pctx, name, &p.dim)
		}(name)
	}
}

// fetchModels lists the origin's models.
func (r *Replicator) fetchModels(ctx context.Context) ([]ModelInfo, error) {
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, r.cfg.Origin+"/v1/models", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
		return nil, fmt.Errorf("origin answered %d", resp.StatusCode)
	}
	var list []ModelInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&list); err != nil {
		return nil, err
	}
	return list, nil
}

// pull is one model's replication loop: long-poll, apply, repeat. dim
// is the model's Dim as the origin last listed it, the bound on a
// frame's count.
func (r *Replicator) pull(ctx context.Context, name string, dim *atomic.Int64) {
	var (
		since   uint64
		store   *snapshot.Store
		local   *Model
		attempt int
		rng     = xrand.New(r.cfg.Seed ^ hashName(name))
	)
	u := r.cfg.Origin + "/v1/replicate?model=" + url.QueryEscape(name)
	log := r.cfg.Log.With("model", name, "origin", r.cfg.Origin)
	for ctx.Err() == nil {
		pctx, cancel := context.WithTimeout(ctx, r.cfg.PollWindow)
		// A nil buffer: each version decodes into its own slice, which
		// Store.Restore then keeps as the version's weights. A buffer
		// kept per model would hold Dim values for the puller's life.
		a, err := frame.Pull(pctx, r.cfg.Client, u, since, int(dim.Load()), nil)
		cancel()
		var se *frame.StatusError
		switch {
		case errors.As(err, &se) && se.Status == http.StatusNotFound:
			// The model is gone on the origin: withdraw the local copy and
			// exit (discovery restarts a puller if it reappears).
			if r.cfg.Registry.Delete(name) {
				log.Info("replica: model withdrawn (gone on origin)")
			}
			return
		case err != nil:
			if ctx.Err() != nil {
				return
			}
			attempt++
			r.pulls.With(name, "error").Inc()
			d := frame.Backoff(r.cfg.RetryBase, r.cfg.RetryCap, attempt, rng)
			log.Warn("replica: pull failed, backing off", "attempt", attempt, "backoff", d, "error", err)
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
			continue
		case a.Weights != nil:
			store, local = r.apply(log, name, &a, store, local)
		case a.Next < since:
			log.Warn("replica: origin sequence regressed, resyncing from scratch",
				"origin_seq", a.Seq, "replica_seq", since)
			r.pulls.With(name, "reset").Inc()
		default:
			// Poll window expired with nothing newer: we are current.
			r.pulls.With(name, "current").Inc()
			if local != nil {
				local.live.Store(a.Live)
				local.setReplicaLag(0)
				r.lagGauge.With(name).Set(0)
			}
		}
		attempt = 0
		since = a.Next
	}
}

// apply republishes one pulled version locally, swapping in a fresh
// store (and model entry) on first contact or after an origin reset.
// Returns the (possibly new) store/model pair.
func (r *Replicator) apply(log *slog.Logger, name string, a *frame.Answer,
	store *snapshot.Store, local *Model) (*snapshot.Store, *Model) {
	if store == nil || store.Seq() >= a.Seq {
		// First contact, or the origin restarted and its history begins
		// again below our store's seq (Restore refuses to regress, so the
		// reset takes a fresh store; in-flight predicts finish against the
		// version they already resolved).
		store = snapshot.NewStore()
		store.SetDType(a.DType)
		local = nil
	}
	if _, err := store.Restore(a.Seq, a.Epoch, a.Iters, a.Weights); err != nil {
		log.Warn("replica: rejected pulled version", "seq", a.Seq, "error", err)
		r.pulls.With(name, "error").Inc()
		return store, local
	}
	if local == nil {
		local = &Model{
			Name: name, Algo: a.Algo, Objective: a.Objective,
			Dataset: a.Dataset, Store: store,
		}
		local.replica.Store(true)
		if err := r.cfg.Registry.Publish(local); err != nil {
			log.Warn("replica: publish failed", "error", err)
			r.pulls.With(name, "error").Inc()
			return store, nil
		}
	}
	local.live.Store(a.Live)
	lag := time.Duration(0)
	if a.Published > 0 {
		lag = time.Since(time.Unix(0, a.Published))
		if lag < 0 {
			lag = 0
		}
	}
	local.setReplicaLag(lag)
	r.seqGauge.With(name).Set(float64(a.Seq))
	r.lagGauge.With(name).Set(lag.Seconds())
	r.pulls.With(name, "applied").Inc()
	log.Debug("replica: applied version", "seq", a.Seq, "lag", lag)
	return store, local
}

// hashName is FNV-1a, seeding per-model jitter streams.
func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
