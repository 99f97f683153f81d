package serve

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/isasgd/isasgd/internal/checkpoint"
	"github.com/isasgd/isasgd/internal/kernel"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/snapshot"
)

// Model is a published model: immutable identity and metadata plus a
// versioned weight store (internal/snapshot). The metadata fields are
// fixed at publication; the weights advance through Store as the owning
// training job publishes fresher versions — a model marked live serves
// mid-training snapshots that hot-advance until the job completes.
// Predictions resolve the current Version once and score against its
// immutable weights, so a whole batch is answered from one consistent
// snapshot without any synchronization beyond a single atomic load.
type Model struct {
	Name      string
	Algo      string
	Objective string
	Dataset   string
	Published time.Time

	// Store holds the versioned weights; it must be non-empty (at least
	// one published version) before the model enters a Registry.
	Store *snapshot.Store

	// obj, when non-nil, maps scores to labels with the training
	// objective's Predict; checkpoint-imported models fall back to
	// sign(score), which is what all shipped objectives implement.
	obj objective.Objective

	// live is set while the owning training job is still publishing
	// versions; flipped off (without republication — the registry map is
	// untouched) when the job reaches its terminal state.
	live atomic.Bool

	// replica marks a model maintained by a Replicator pulling from an
	// origin server; lagBits then holds the replication lag in seconds
	// (float64 bits) — origin publish to local apply for the newest
	// version, 0 once a long-poll confirmed the copy is current. Both
	// atomic: the replicator's puller goroutine writes them while List
	// and /metrics scrapes read.
	replica atomic.Bool
	lagBits atomic.Uint64

	// Telemetry cells bound from the owning registry's obs vecs at
	// publication time (set-once, see publishReplacing): the predict hot
	// path touches pre-resolved atomic instruments, never a vec lookup.
	requests *obs.Counter   // predict requests served
	preds    *obs.Counter   // instances scored (batch sizes summed)
	lat      *obs.Histogram // predict latency
}

// Version returns the model's current weight snapshot (nil only before
// the model was ever published, which a Registry never exposes).
func (m *Model) Version() *snapshot.Version { return m.Store.Load() }

// Live reports whether the model's owning job is still training (its
// versions hot-advance).
func (m *Model) Live() bool { return m.live.Load() }

// Latency returns the model's predict-latency histogram (nil before the
// model entered a registry).
func (m *Model) Latency() *obs.Histogram { return m.lat }

// setReplicaLag records one replication-lag observation (and marks the
// model replica-maintained); negative lags — clock skew between origin
// and replica hosts — clamp to 0.
func (m *Model) setReplicaLag(d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.replica.Store(true)
	m.lagBits.Store(math.Float64bits(d.Seconds()))
}

// ReplicaLag returns the model's last recorded replication lag in
// seconds; ok is false for models not maintained by a Replicator.
func (m *Model) ReplicaLag() (seconds float64, ok bool) {
	if !m.replica.Load() {
		return 0, false
	}
	return math.Float64frombits(m.lagBits.Load()), true
}

// Dim returns the current version's dimensionality.
func (m *Model) Dim() int {
	if v := m.Store.Load(); v != nil {
		return v.Dim()
	}
	return 0
}

// Predict scores one validated instance against the model's current
// version. Out-of-range indices contribute 0 (see Instance). Batch
// callers should resolve the version once via the Registry's Predict,
// which also answers the whole batch from a single snapshot.
func (m *Model) Predict(in Instance) Prediction {
	v := m.Store.Load()
	if v == nil {
		return Prediction{}
	}
	return m.predictAt(v, in)
}

// predictAt scores one instance against a resolved version with the
// shared devirtualized sparse dot (internal/kernel). Models whose
// training run stored float32 weights (Store.DType) score against the
// version's cached float32 view instead: the dot still accumulates in
// float64 and the f32-trained weights widen exactly, so the score is
// bitwise-identical to the float64 path while loading half the weight
// bytes. Allocation-free after the version's first f32 predict (W32
// materializes once per version).
func (m *Model) predictAt(v *snapshot.Version, in Instance) Prediction {
	var score float64
	if m.Store.DType() == model.PrecisionF32 {
		score = kernel.DotClampedInts32(v.W32(), in.Indices, in.Values)
	} else {
		score = kernel.DotClampedInts(v.Weights, in.Indices, in.Values)
	}
	label := 1.0
	if m.obj != nil {
		label = m.obj.Predict(score)
	} else if score < 0 {
		label = -1
	}
	return Prediction{Score: score, Label: label}
}

// Checkpoint renders the model's current version as a persistable
// training state, with a defensive copy of the weights.
func (m *Model) Checkpoint() *checkpoint.State {
	v := m.Store.Load()
	w := make([]float64, len(v.Weights))
	copy(w, v.Weights)
	return &checkpoint.State{
		Algo:      m.Algo,
		Objective: m.Objective,
		Dataset:   m.Dataset,
		Seq:       v.Seq,
		Epoch:     v.Epoch,
		Iters:     v.Iters,
		DType:     m.Store.DType(),
		Weights:   w,
	}
}

// ModelFromCheckpoint builds a publishable single-version model from a
// loaded checkpoint state, at the state's storage width. The weights are
// copied so later mutation of st cannot reach a published model.
func ModelFromCheckpoint(name string, st *checkpoint.State) *Model {
	store := snapshot.Of(st.Epoch, st.Iters, st.Weights)
	store.SetDType(st.DType)
	return &Model{
		Name:  name,
		Store: store,
		Algo:  st.Algo, Objective: st.Objective, Dataset: st.Dataset,
	}
}

// Registry is the model store behind the prediction hot path. The name →
// model map lives behind an atomic pointer and is copy-on-write: Publish
// and Delete clone it under a writer mutex and swap the pointer, so
// Get, List and Predict are lock-free — a single atomic load, never
// blocked by (or blocking) a publishing training job. Combined with the
// per-model snapshot store, the request path holds no lock anywhere: map
// load → version load → score.
type Registry struct {
	mu     sync.Mutex // serializes Publish/Delete; readers never take it
	models atomic.Pointer[map[string]*Model]

	// obs is the central metrics registry every per-model instrument is
	// bound from; the Manager and Server layer their own families onto
	// the same registry so one /metrics scrape covers the whole service.
	obs     *obs.Registry
	reqVec  *obs.CounterVec
	predVec *obs.CounterVec
	latVec  *obs.SummaryVec
}

// NewRegistry returns an empty registry backed by a fresh service-wide
// metrics registry (build info and runtime gauges included).
func NewRegistry() *Registry {
	r := &Registry{obs: obs.NewServiceRegistry()}
	m := make(map[string]*Model)
	r.models.Store(&m)
	r.reqVec = r.obs.CounterVec("isasgd_model_requests_total",
		"Predict requests served per model.", "model")
	r.predVec = r.obs.CounterVec("isasgd_model_predictions_total",
		"Instances scored per model (batch sizes summed).", "model")
	r.latVec = r.obs.SummaryVec("isasgd_model_predict_latency_seconds",
		"Predict latency quantiles per model (log-bucket histogram estimate).", 1e-9, "model")
	r.obs.Collect("isasgd_model_qps",
		"Average predict requests per second per model.",
		obs.TypeGauge, []string{"model"}, func(emit obs.Emit) {
			for _, m := range r.load() {
				if m.requests != nil {
					emit([]string{m.Name}, m.requests.Rate())
				}
			}
		})
	r.obs.Collect("isasgd_model_seq",
		"Current weight-snapshot sequence number per model (advances while the model trains live).",
		obs.TypeGauge, []string{"model", "live"}, func(emit obs.Emit) {
			for _, m := range r.load() {
				live := "0"
				if m.Live() {
					live = "1"
				}
				if v := m.Store.Load(); v != nil {
					emit([]string{m.Name, live}, float64(v.Seq))
				}
			}
		})
	return r
}

// Obs returns the service-wide metrics registry backing this model
// registry.
func (r *Registry) Obs() *obs.Registry { return r.obs }

// load returns the current (immutable) name → model map.
func (r *Registry) load() map[string]*Model { return *r.models.Load() }

// cloneWith returns a copy of cur with name mapped to m, or with name
// removed when m is nil — the one copy-on-write step behind every
// registry write.
func cloneWith(cur map[string]*Model, name string, m *Model) map[string]*Model {
	next := make(map[string]*Model, len(cur)+1)
	for k, v := range cur {
		if k != name {
			next[k] = v
		}
	}
	if m != nil {
		next[name] = m
	}
	return next
}

// Publish installs (or atomically replaces) m under m.Name by cloning
// the map. The telemetry (request/prediction meters, latency histogram)
// of a replaced model carries over so per-model counters survive hot
// swaps, including a finished job republishing over its live model.
func (r *Registry) Publish(m *Model) error {
	_, err := r.publishReplacing(m)
	return err
}

// publishReplacing is Publish that also reports the model the name
// previously held (nil if none). The capture and the swap happen under
// one writer-mutex hold, so live-job bookkeeping sees exactly the entry
// it displaced.
func (r *Registry) publishReplacing(m *Model) (*Model, error) {
	if m.Name == "" {
		return nil, fmt.Errorf("serve: model name must be non-empty")
	}
	if m.Store == nil {
		return nil, fmt.Errorf("serve: model %q has no snapshot store", m.Name)
	}
	v := m.Store.Load()
	if v == nil || len(v.Weights) == 0 {
		return nil, fmt.Errorf("serve: model %q has no weights", m.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.load()
	prev := cur[m.Name]
	// Set-once: a model that already carries telemetry (e.g. a previous
	// version being republished after a failed live job) is never written
	// to here — concurrent readers may hold it. Binding goes through the
	// obs vecs, which hand back the same series for the same name, so
	// counters survive hot swaps and republications automatically.
	if m.requests == nil {
		m.requests = r.reqVec.With(m.Name)
		m.preds = r.predVec.With(m.Name)
		m.lat = r.latVec.With(m.Name)
	}
	if m.Published.IsZero() {
		m.Published = time.Now()
	}
	next := cloneWith(cur, m.Name, m)
	r.models.Store(&next)
	return prev, nil
}

// restoreIf reverts name to prev (or removes the entry when prev is
// nil), but only while the current entry is still expect: a job rolling
// back its live model must not clobber a model someone else published,
// imported or deleted over the name mid-job. Reports whether the
// restore happened.
func (r *Registry) restoreIf(name string, expect, prev *Model) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.load()
	if cur[name] != expect {
		return false
	}
	next := cloneWith(cur, name, prev)
	r.models.Store(&next)
	return true
}

// Get returns the current model under name. Lock-free.
func (r *Registry) Get(name string) (*Model, bool) {
	m, ok := r.load()[name]
	return m, ok
}

// Delete removes name by cloning the map; it reports whether a model
// was present. In-flight predictions against the removed model finish
// against the snapshot they already resolved.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.load()
	if _, ok := cur[name]; !ok {
		return false
	}
	next := cloneWith(cur, name, nil)
	r.models.Store(&next)
	return true
}

// List returns info for every published model, sorted by name.
// Lock-free: it walks one atomically loaded map snapshot.
func (r *Registry) List() []ModelInfo {
	cur := r.load()
	out := make([]ModelInfo, 0, len(cur))
	for _, m := range cur {
		v := m.Store.Load()
		info := ModelInfo{
			Name: m.Name, Algo: m.Algo, Objective: m.Objective,
			Dataset: m.Dataset, Dim: v.Dim(), Epoch: v.Epoch,
			Iters: v.Iters, Seq: v.Seq, Live: m.Live(),
			DType:     m.Store.DType(),
			Published: m.Published,
			Requests:  m.requests.Count(), QPS: m.requests.Rate(),
			Predictions: m.preds.Count(),
		}
		if lag, ok := m.ReplicaLag(); ok {
			info.Replica = true
			info.Lag = &lag
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// predictResponses pools PredictResponse values (and their Prediction
// slices) so the steady-state predict path allocates nothing; see
// PredictResponse.Release.
var predictResponses = sync.Pool{New: func() any { return new(PredictResponse) }}

// Release returns the response (and its prediction buffer) to the pool.
// Callers must not touch the response after releasing it. Releasing is
// optional — an unreleased response is ordinary garbage — but the predict
// hot path relies on it for zero steady-state allocations.
func (p *PredictResponse) Release() {
	p.Model = ""
	p.Predictions = p.Predictions[:0]
	predictResponses.Put(p)
}

// Predict validates and scores a batch against the named model: resolve
// then score. The whole request runs lock-free and, on the steady state,
// allocation-free: one atomic load resolves the model map, one more
// resolves the weight version the entire batch is scored against (so a
// batch is always internally consistent, even while the model
// hot-advances), the batch is validated before any buffer is taken, and
// the response comes from a pool the caller returns it to via Release.
// Telemetry records both the request and the len(batch) instances it
// scored. An unknown name yields an error wrapping ErrNotFound so callers
// can distinguish it from a bad batch; a batch with a score that is not
// finite (the sum overflowed, or a weight is not finite) is an error too,
// since JSON cannot carry it.
func (r *Registry) Predict(name string, batch []Instance) (*PredictResponse, error) {
	m, v, err := r.resolve(name)
	if err != nil {
		return nil, err
	}
	return m.score(v, batch)
}

// resolve is Predict's first phase: the model under name and the weight
// version its batch is scored against. Errors wrap ErrNotFound.
func (r *Registry) resolve(name string) (*Model, *snapshot.Version, error) {
	m, ok := r.load()[name]
	if !ok {
		return nil, nil, fmt.Errorf("serve: model %q: %w", name, ErrNotFound)
	}
	v := m.Store.Load()
	if v == nil {
		return nil, nil, fmt.Errorf("serve: model %q has no published version: %w", name, ErrNotFound)
	}
	return m, v, nil
}

// score is Predict's second phase: validate batch and score it against
// version v of m.
func (m *Model) score(v *snapshot.Version, batch []Instance) (*PredictResponse, error) {
	for i := range batch {
		if err := batch[i].Validate(); err != nil {
			return nil, fmt.Errorf("serve: instance %d: %w", i, err)
		}
	}
	resp := predictResponses.Get().(*PredictResponse)
	resp.Model = m.Name
	resp.Seq = v.Seq
	resp.Epoch = v.Epoch
	resp.Iters = v.Iters
	resp.Live = m.Live()
	if cap(resp.Predictions) < len(batch) {
		resp.Predictions = make([]Prediction, len(batch))
	}
	resp.Predictions = resp.Predictions[:len(batch)]
	for i := range batch {
		p := m.predictAt(v, batch[i])
		if math.IsInf(p.Score, 0) || math.IsNaN(p.Score) {
			resp.Release()
			return nil, fmt.Errorf("serve: instance %d: score is not finite", i)
		}
		resp.Predictions[i] = p
	}
	m.requests.Add(1)
	m.preds.Add(int64(len(batch)))
	return resp, nil
}
