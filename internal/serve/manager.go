package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/isasgd/isasgd/internal/checkpoint"
	"github.com/isasgd/isasgd/internal/core"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/spec"
	"github.com/isasgd/isasgd/internal/stream"
)

// ErrNotFound is returned for unknown job or model identifiers.
var ErrNotFound = errors.New("serve: not found")

// ErrShuttingDown is returned for submissions after Shutdown began.
var ErrShuttingDown = errors.New("serve: shutting down")

// Job is one training job owned by the Manager. All mutable fields are
// guarded by mu; the public surface hands out JobStatus snapshots.
type Job struct {
	ID string

	// reqID is the X-Request-ID of the submitting HTTP request (or a
	// fresh id for direct submissions); immutable after register, stamped
	// through the job's lifecycle log lines and status.
	reqID string

	mu        sync.Mutex
	cfg       core.Config // compiled config (defaults applied)
	kind      string      // "" for batch jobs, "stream" for streaming jobs
	model     string
	state     JobState
	algoName  string
	objName   string
	dsName    string
	samples   int
	dim       int
	curve     metrics.Curve
	iters     int64
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time

	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches a terminal state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, Model: j.model, Kind: j.kind, State: j.state,
		RequestID: j.reqID,
		Algo:      j.algoName, Objective: j.objName, Dataset: j.dsName,
		Samples: j.samples, Dim: j.dim,
		Epochs: j.cfg.Epochs, Iters: j.iters, Error: j.errMsg,
		Submitted: j.submitted,
	}
	if last := j.curve.Final(); len(j.curve) > 0 {
		st.Epoch = last.Epoch
		st.Obj = last.Obj
		st.ErrRate = last.ErrRate
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// CurveResponse snapshots the convergence curve recorded so far.
func (j *Job) CurveResponse() CurveResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return CurveResponse{ID: j.ID, State: j.state, Curve: curvePoints(j.curve)}
}

// Manager runs training jobs on a bounded worker pool, publishes
// models into a Registry — live while they train (the snapshot
// pipeline: mid-training weight versions hot-advance under concurrent
// predictions), final when they complete — and persists checkpoints.
type Manager struct {
	registry     *Registry
	ckptDir      string // "" disables persistence
	streamRoot   string // "" rejects file-fed streaming jobs
	publishEvery int    // live-snapshot cadence in epochs/blocks; 0 publishes only at completion
	defaultPrec  string // precision applied to specs that leave it empty; "" keeps f64
	sem          chan struct{}

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	updates    *obs.Counter
	log        *slog.Logger

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
	closed bool
}

// NewManager returns a manager executing at most poolSize jobs
// concurrently (minimum 1). ckptDir, when non-empty, receives one
// <model>.ckpt file per finished (or cancelled-with-progress) job and is
// scanned by Restore.
func NewManager(reg *Registry, poolSize int, ckptDir string) *Manager {
	if poolSize < 1 {
		poolSize = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	o := reg.Obs()
	m := &Manager{
		registry:     reg,
		ckptDir:      ckptDir,
		publishEvery: 1,
		sem:          make(chan struct{}, poolSize),
		baseCtx:      ctx, baseCancel: cancel,
		updates: o.Counter("isasgd_updates_total",
			"Cumulative solver updates across all jobs."),
		log:  obs.NopLogger(),
		jobs: make(map[string]*Job),
	}
	o.Collect("isasgd_updates_per_sec",
		"Average solver updates per second since start.",
		obs.TypeGauge, nil, func(emit obs.Emit) {
			emit(nil, m.updates.Rate())
		})
	o.Collect("isasgd_jobs", "Jobs by lifecycle state.",
		obs.TypeGauge, []string{"state"}, func(emit obs.Emit) {
			st := m.Stats()
			emit([]string{"cancelled"}, float64(st.Cancelled))
			emit([]string{"done"}, float64(st.Done))
			emit([]string{"failed"}, float64(st.Failed))
			emit([]string{"queued"}, float64(st.Queued))
			emit([]string{"running"}, float64(st.Running))
		})
	o.Collect("isasgd_model_snapshot_lag_updates",
		"Serving staleness of live models: updates the running job has applied beyond the currently published snapshot.",
		obs.TypeGauge, []string{"model"}, func(emit obs.Emit) {
			for _, st := range m.Jobs() {
				if st.State != StateRunning {
					continue
				}
				mdl, ok := m.registry.Get(st.Model)
				if !ok {
					continue
				}
				v := mdl.Store.Load()
				if v == nil {
					continue
				}
				if lag := st.Iters - v.Iters; lag >= 0 {
					emit([]string{st.Model}, float64(lag))
				}
			}
		})
	return m
}

// SetLogger installs the structured logger for job lifecycle events.
// The default discards. Call before submitting jobs.
func (m *Manager) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obs.NopLogger()
	}
	m.log = l
}

// Logger returns the manager's structured logger (never nil).
func (m *Manager) Logger() *slog.Logger { return m.log }

// Obs returns the service-wide metrics registry (shared with the model
// registry and HTTP layer).
func (m *Manager) Obs() *obs.Registry { return m.registry.Obs() }

// SetPublishEvery sets the live-publication cadence: running jobs cut a
// weight snapshot (and appear in the registry as live models) every n
// epochs (batch jobs) or blocks (streaming jobs). n <= 0 disables live
// publication — models appear only when their job completes, the
// pre-snapshot behavior. Call before submitting jobs.
func (m *Manager) SetPublishEvery(n int) {
	if n < 0 {
		n = 0
	}
	m.publishEvery = n
}

// Registry returns the model registry jobs publish into.
func (m *Manager) Registry() *Registry { return m.registry }

// SetDefaultPrecision sets the training precision applied to job specs
// that leave Precision empty (cmd/isasgd-serve's -precision flag). An
// explicit spec precision always wins; unknown names are rejected here
// rather than on every submission. Call before submitting jobs.
func (m *Manager) SetDefaultPrecision(p string) error {
	prec, err := model.ParsePrecision(p)
	if err != nil {
		return err
	}
	m.defaultPrec = prec
	return nil
}

// SetStreamRoot allows file-fed streaming jobs (JobSpec.Path) to read
// files under dir. While unset (the default), path-based streaming
// specs are rejected — the API must not become an arbitrary-file read
// oracle. Call before serving requests.
func (m *Manager) SetStreamRoot(dir string) { m.streamRoot = dir }

// CheckpointPath returns the persistence path for a model name, or ""
// when persistence is disabled.
func (m *Manager) CheckpointPath(model string) string {
	if m.ckptDir == "" {
		return ""
	}
	return filepath.Join(m.ckptDir, model+checkpoint.Ext)
}

// Restore scans the checkpoint directory and republishes every saved
// model under its file stem, so a restarted server keeps serving the
// models of its previous life. Unreadable or unpublishable files are
// skipped and reported rather than aborting, so one corrupt checkpoint
// cannot keep the server from booting with its healthy models.
func (m *Manager) Restore() (restored int, skipped []string, err error) {
	paths, err := checkpoint.ListDir(m.ckptDir)
	if err != nil {
		return 0, nil, err
	}
	for _, p := range paths {
		st, err := checkpoint.LoadFile(p)
		if err != nil {
			skipped = append(skipped, p)
			continue
		}
		name := strings.TrimSuffix(filepath.Base(p), checkpoint.Ext)
		if err := m.registry.Publish(ModelFromCheckpoint(name, st)); err != nil {
			skipped = append(skipped, p)
			continue
		}
		restored++
	}
	return restored, skipped, nil
}

// validName reports whether s is safe as a model name and checkpoint
// file stem: non-empty, and only [A-Za-z0-9._-] with no leading dot.
func validName(s string) bool {
	if s == "" || s[0] == '.' || len(s) > 128 {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// resolved is a JobSpec compiled against the library: everything the
// worker goroutine needs to call core.Train (batch) or drive a
// stream.Trainer (streaming).
type resolved struct {
	synth *dataset.SynthConfig // preset jobs synthesize in the worker
	ds    *dataset.Dataset     // inline jobs parse at submission
	obj   objective.Objective
	cfg   core.Config

	stream     *stream.Config // non-nil for streaming jobs
	streamPath string         // server-side source ("" = fed from an upload body)
	blockSize  int
}

// maxModelDim bounds a model's dimension: a streaming job's dim, and the
// Dim a replica accepts from its origin's model list.
const maxModelDim = 1 << 28

// compile validates a spec and resolves it to library values, so the API
// answers 400 at submission instead of parking a doomed job in the
// queue. The spec's defaults and rules are spec.Spec's; serve adds its
// resource bounds and the job's source: a preset or inline data for a
// batch job, Path (confined to streamRoot, "" rejects it) or, when
// bodyFed, the upload body for a streaming job.
func compile(s JobSpec, bodyFed bool, streamRoot string) (*resolved, error) {
	switch s.Kind {
	case "", spec.KindBatch:
		if bodyFed {
			return nil, fmt.Errorf("serve: upload-fed jobs must set kind \"stream\"")
		}
	case spec.KindStream:
	default:
		return nil, fmt.Errorf("serve: unknown job kind %q (want batch or stream)", s.Kind)
	}
	s.Defaults(spec.Serve)
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// The service's resource bounds: one request must not pin unbounded
	// memory or spawn unbounded worker goroutines.
	for _, b := range []struct {
		name   string
		v, max int
	}{
		{"epochs", s.Epochs, 100_000_000}, {"threads", s.Threads, 1 << 10},
		{"dim", s.Dim, maxModelDim}, {"block_size", s.BlockSize, 1 << 22},
		{"window_blocks", s.WindowBlocks, 1 << 12}, {"updates_per_block", s.UpdatesPerBlock, 1 << 26},
		{"reservoir", s.Reservoir, 1 << 24},
	} {
		if b.v > b.max {
			return nil, fmt.Errorf("serve: %s must be at most %d, got %d", b.name, b.max, b.v)
		}
	}
	np := runtime.GOMAXPROCS(0) // more workers than cores only adds conflict
	r := &resolved{}
	if s.Kind == spec.KindStream {
		switch {
		case bodyFed && s.Path != "":
			return nil, fmt.Errorf("serve: upload-fed streaming jobs must not also set path")
		case !bodyFed && s.Path == "":
			return nil, fmt.Errorf("serve: streaming jobs require a path (or use POST /v1/jobs/stream with a body)")
		case !bodyFed:
			p, err := resolveStreamPath(streamRoot, s.Path)
			if err != nil {
				return nil, err
			}
			fi, err := os.Stat(p)
			if err != nil {
				return nil, fmt.Errorf("serve: stream path: %w", err)
			}
			if fi.IsDir() {
				return nil, fmt.Errorf("serve: stream path %q is a directory", s.Path)
			}
			r.streamPath = p
		}
		cfg := stream.FromSpec(s)
		cfg.Workers = min(cfg.Workers, np)
		r.stream, r.obj, r.blockSize = &cfg, cfg.Obj, s.BlockSize
		// The batch config only reports the algo, step and seed.
		algo, _ := core.ParseAlgo(s.Algo)
		r.cfg = core.Config{Algo: algo, Step: cfg.Step, Seed: cfg.Seed, Threads: cfg.Workers}
		return r, nil
	}
	switch {
	case s.Dataset != "":
		cfg, _ := dataset.Preset(s.Dataset, s.Scale, s.Seed)
		r.synth = &cfg
	case s.Data != "":
		ds, err := dataset.ParseLibSVM(strings.NewReader(s.Data), "inline", s.MinDim)
		if err != nil {
			return nil, fmt.Errorf("serve: parse inline data: %w", err)
		}
		r.ds = ds
	default:
		return nil, fmt.Errorf("serve: a dataset preset or inline data is required")
	}
	r.obj, _ = objective.Parse(s.Objective, s.Eta)
	r.cfg = core.FromSpec(s)
	r.cfg.Threads = min(r.cfg.Threads, np)
	return r, nil
}

// resolveStreamPath confines a file-fed streaming source to the
// configured root: relative paths resolve under it, absolute paths must
// already live inside it, and both ".." and symlink escapes are
// rejected (the containment check runs on the symlink-resolved path, so
// a link inside the root pointing outside it cannot smuggle reads). An
// empty root rejects every path — exposing arbitrary server-side reads
// to API clients is opt-in.
func resolveStreamPath(root, p string) (string, error) {
	if root == "" {
		return "", fmt.Errorf("serve: file-fed streaming jobs are disabled (no stream root configured; use an upload body)")
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return "", fmt.Errorf("serve: stream root: %w", err)
	}
	if realRoot, err := filepath.EvalSymlinks(absRoot); err == nil {
		absRoot = realRoot
	}
	if !filepath.IsAbs(p) {
		p = filepath.Join(absRoot, p)
	}
	real, err := filepath.EvalSymlinks(filepath.Clean(p))
	if err != nil {
		return "", fmt.Errorf("serve: stream path: %w", err)
	}
	rel, err := filepath.Rel(absRoot, real)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("serve: stream path %q escapes the stream root", p)
	}
	return real, nil
}

// register validates naming, allocates an id and enters the job into
// the tables. reqID is the submitting request's trace id ("" mints a
// fresh one, so every job is traceable). Callers own starting the
// worker.
func (m *Manager) register(spec JobSpec, r *resolved, reqID string) (*Job, context.Context, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, nil, ErrShuttingDown
	}
	id := fmt.Sprintf("job-%06d", m.nextID+1)
	model := spec.Model
	if model == "" {
		model = id
	}
	if !validName(model) {
		return nil, nil, fmt.Errorf("serve: invalid model name %q (use letters, digits, '.', '_', '-')", spec.Model)
	}
	m.nextID++
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		ID: id, reqID: reqID,
		cfg: r.cfg, kind: spec.Kind, model: model, state: StateQueued,
		algoName: r.cfg.Algo.String(), objName: r.obj.Name(),
		submitted: time.Now(),
		cancel:    cancel, done: make(chan struct{}),
	}
	switch {
	case r.stream != nil:
		j.kind = "stream"
		j.dim = r.stream.Dim
		if r.streamPath != "" {
			j.dsName = r.streamPath
		} else {
			j.dsName = "stream-upload"
		}
	case r.synth != nil:
		j.dsName = r.synth.Name
	default:
		j.dsName = r.ds.Name
		j.samples = r.ds.N()
		j.dim = r.ds.Dim()
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.wg.Add(1)
	return j, ctx, nil
}

// Submit validates spec, registers a queued job and starts its worker
// goroutine. The returned Job is live: poll Status or wait on Done.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	return m.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit carrying the caller's context: the request id
// stamped by the HTTP middleware (obs.RequestID) is recorded on the job
// and threaded through its lifecycle log lines. The context does NOT
// cancel the job — jobs outlive their submitting request by design.
func (m *Manager) SubmitCtx(ctx context.Context, spec JobSpec) (*Job, error) {
	j, jobCtx, r, err := m.submit(ctx, spec, false)
	if err != nil {
		return nil, err
	}
	go m.run(jobCtx, j, r, nil)
	return j, nil
}

// SubmitStream registers a streaming job fed by body and trains it in
// the calling goroutine, returning when the stream is exhausted, fails
// or is cancelled. The caller (the upload handler) keeps body alive for
// the duration and passes its request context: a client that
// disconnects mid-upload — or while the job waits for a pool slot —
// cancels the job instead of parking it forever. The job appears in the
// job tables like any other.
func (m *Manager) SubmitStream(ctx context.Context, spec JobSpec, body io.Reader) (*Job, error) {
	spec.Kind = "stream"
	j, jobCtx, r, err := m.submit(ctx, spec, true)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, j.cancel)
	defer stop()
	m.run(jobCtx, j, r, body)
	return j, nil
}

// submit compiles spec, registers the job and logs its submission; the
// caller starts it.
func (m *Manager) submit(ctx context.Context, spec JobSpec, bodyFed bool) (*Job, context.Context, *resolved, error) {
	if spec.Precision == "" {
		spec.Precision = m.defaultPrec
	}
	r, err := compile(spec, bodyFed, m.streamRoot)
	if err != nil {
		return nil, nil, nil, err
	}
	j, jobCtx, err := m.register(spec, r, obs.RequestID(ctx))
	if err != nil {
		return nil, nil, nil, err
	}
	m.jobLog(j).LogAttrs(jobCtx, slog.LevelInfo, "job submitted",
		slog.String("kind", j.kind), slog.String("algo", j.algoName),
		slog.String("dataset", j.dsName))
	return j, jobCtx, r, nil
}

// jobLog returns the job-scoped structured logger.
func (m *Manager) jobLog(j *Job) *slog.Logger {
	return m.log.With(
		slog.String("job", j.ID),
		slog.String("model", j.model),
		slog.String("request_id", j.reqID),
	)
}

// liveModel tracks a model published mid-training so the job's terminal
// state can finalize it (training done: clear the live flag — the
// registry map needs no touch, the store already holds the final
// version) or roll it back (cancelled/failed: restore whatever model
// held the name before, or remove the entry). publish is idempotent and
// safe to call from every progress tick.
type liveModel struct {
	mgr  *Manager
	m    *Model
	once sync.Once
	prev *Model // model previously under the name; restored on rollback
	ok   atomic.Bool
}

// newLiveModel builds the (not yet registered) serving model for a job.
func (m *Manager) newLiveModel(j *Job, obj objective.Objective, dataset string, st *snapshot.Store) *liveModel {
	mdl := &Model{
		Name: j.model, Store: st,
		Algo: j.algoName, Objective: obj.Name(), Dataset: dataset,
		obj: obj,
	}
	return &liveModel{mgr: m, m: mdl}
}

// publish registers the model as live on first call; later calls are
// no-ops. Called from progress callbacks, i.e. only once the snapshot
// store holds a servable version. The displaced entry is captured
// atomically with the swap so rollback restores exactly what this job
// replaced.
func (l *liveModel) publish() {
	l.once.Do(func() {
		l.m.live.Store(true)
		prev, err := l.mgr.registry.publishReplacing(l.m)
		if err == nil {
			l.prev = prev
			l.ok.Store(true)
		}
	})
}

// finalize marks the model final. If the registry no longer holds this
// job's model under the name — it never went live (publication
// disabled, or the job finished before its first progress tick), or a
// client deleted/replaced the entry mid-job — it is (re)published now:
// job completion wins the name, matching the pre-snapshot behavior of
// publishing exactly at completion. The store must already hold the
// final version.
func (l *liveModel) finalize() error {
	l.m.live.Store(false)
	if l.ok.Load() {
		if cur, found := l.mgr.registry.Get(l.m.Name); found && cur == l.m {
			return nil
		}
	}
	return l.mgr.registry.Publish(l.m)
}

// rollback undoes a live publication after a cancelled or failed job:
// the name reverts to the previously published model, or disappears if
// the job introduced it — but only while this job's model still holds
// the name, so an entry someone else published or imported mid-job is
// left untouched. prev's own live flag belongs to its owning job
// (finalize/rollback there) and is not touched here.
func (l *liveModel) rollback() {
	if !l.ok.Load() {
		return
	}
	l.mgr.registry.restoreIf(l.m.Name, l.m, l.prev)
}

// stopped is where a job's training stopped: the epoch (block, for a
// streaming job) and the updates its weights reached. It is one point,
// so a checkpoint cut from it never pairs weights with another point's
// counters.
type stopped struct {
	epoch   int
	iters   int64
	weights []float64
	dtype   string // the storage width the job trained at
}

// training is what run hands a job kind's trainer: batchTrain or
// streamTrain, the part of a job that differs by kind. A trainer gets
// the data, calls started once training can begin, and trains,
// reporting every curve point to progress.
type training struct {
	ins      *obs.TrainInstruments
	store    *snapshot.Store // live-publication target; nil when it is off
	every    int             // live-publication cadence
	started  func(samples, dim int)
	progress func(p metrics.Point, samples int) // once per curve point
}

// batchTrain trains with core.Train on the spec's inline dataset or
// its preset, synthesized here rather than in the submitting request.
func batchTrain(ctx context.Context, t *training, r *resolved) (stopped, error) {
	ds := r.ds
	if r.synth != nil {
		var err error
		if ds, err = dataset.Synthesize(*r.synth); err != nil {
			return stopped{}, fmt.Errorf("synthesize: %w", err)
		}
	}
	t.started(ds.N(), ds.Dim())
	cfg := r.cfg
	cfg.Instruments, cfg.Snapshots, cfg.PublishEvery = t.ins, t.store, t.every
	cfg.Progress = func(p metrics.Point) { t.progress(p, ds.N()) }
	res, err := core.Train(ctx, ds, r.obj, cfg)
	if res == nil {
		return stopped{}, err
	}
	return stopped{res.Epochs, res.Iters, res.Weights, cfg.DType()}, err
}

// streamTrain trains a stream.Trainer over body, or over the spec's path
// when body is nil, scoring the trainer's window after every block.
func streamTrain(ctx context.Context, t *training, r *resolved, body io.Reader) (stopped, error) {
	src, name := body, "stream-upload"
	if src == nil {
		f, err := os.Open(r.streamPath)
		if err != nil {
			return stopped{}, fmt.Errorf("open stream: %w", err)
		}
		defer f.Close()
		src, name = f, r.streamPath
	}
	t.started(0, r.stream.Dim)
	cfg := *r.stream
	cfg.Instruments, cfg.Snapshots, cfg.PublishEvery = t.ins, t.store, t.every
	tr, err := stream.NewTrainer(cfg)
	if err != nil {
		return stopped{}, err
	}
	start, bestErr := time.Now(), math.Inf(1)
	tr.SetOnBlock(func(s stream.BlockStats) {
		obj, rmse, errRate, _ := tr.EvaluateWindow()
		if errRate < bestErr {
			bestErr = errRate
		}
		t.progress(metrics.Point{
			Epoch: int(s.Block) + 1, Iters: s.Updates, Wall: time.Since(start),
			Obj: obj, RMSE: rmse, ErrRate: errRate, BestErr: bestErr,
		}, int(tr.Rows()))
	})
	res, err := tr.Run(ctx, stream.NewReader(src, name, r.blockSize))
	if res == nil {
		return stopped{}, err
	}
	if err == nil && res.Rows == 0 {
		err = errors.New("stream contained no rows")
	}
	return stopped{int(res.Blocks), res.Updates, res.Weights, cfg.Precision}, err
}

// run owns one job from the queue to its terminal state, for both kinds:
// it waits for a pool slot, trains through the kind's trainer —
// publishing live weight snapshots at the manager's cadence — and ends
// the job cancelled (rollback, partial checkpoint), failed (rollback) or
// done (final cut, finalize, checkpoint). Checkpoints are written before
// the terminal state, so a client that sees it also finds the file. run
// is the only writer of terminal state; body feeds an upload-fed
// streaming job.
func (m *Manager) run(ctx context.Context, j *Job, r *resolved, body io.Reader) {
	defer m.wg.Done()
	defer close(j.done)
	defer j.cancel()

	// Bounded pool: block until a slot frees or the job is cancelled
	// while still queued.
	select {
	case m.sem <- struct{}{}:
		defer func() { <-m.sem }()
	case <-ctx.Done():
		m.finish(j, StateCancelled, "cancelled while queued")
		return
	}
	// When cancellation and a free slot race (e.g. shutdown with queued
	// jobs), select may pick the slot; re-check so we do not synthesize a
	// large dataset or open a stream only to discard them.
	if ctx.Err() != nil {
		m.finish(j, StateCancelled, "cancelled while queued")
		return
	}

	log := m.jobLog(j)
	st := snapshot.NewStore()
	live := m.newLiveModel(j, r.obj, j.dsName, st)
	t := &training{ins: obs.NewTrainInstruments(m.Obs(), j.model)}
	// A publish rejected for non-finite weights means serving stops
	// advancing while the job looks healthy — surface it immediately
	// rather than waiting for the run's terminal divergence check.
	st.SetOnReject(func(epoch int, iters int64) {
		t.ins.SnapshotRejected.Inc()
		log.LogAttrs(ctx, slog.LevelWarn, "snapshot publish rejected: non-finite weights",
			slog.Int("epoch", epoch), slog.Int64("iters", iters))
	})
	if m.publishEvery > 0 {
		t.store, t.every = st, m.publishEvery
		// Register the live model from the publication hook rather than
		// the (possibly sparse) evaluation cadence. A cold-start name goes
		// live at its first version — a batch job's epoch-0 one, servable
		// immediately if briefly with untrained weights; a name already
		// serving a finished model keeps serving it until this retrain has
		// trained at least one epoch (stream versions are cut after a
		// block, so theirs always has), so a fresh job never replaces good
		// weights with zeros.
		_, retrain := m.registry.Get(j.model)
		st.SetOnPublish(func(v *snapshot.Version) {
			if v.Epoch >= 1 || !retrain {
				live.publish()
			}
			log.LogAttrs(ctx, slog.LevelDebug, "snapshot published",
				slog.Uint64("seq", v.Seq), slog.Int("epoch", v.Epoch),
				slog.Int64("iters", v.Iters))
		})
	}
	t.started = func(samples, dim int) {
		j.mu.Lock()
		j.state, j.started = StateRunning, time.Now()
		j.samples, j.dim = samples, dim
		j.mu.Unlock()
		log.LogAttrs(ctx, slog.LevelInfo, "job started", slog.String("dataset", j.dsName),
			slog.Int("samples", samples), slog.Int("dim", dim))
	}
	t.progress = func(p metrics.Point, samples int) {
		j.mu.Lock()
		m.updates.Add(p.Iters - j.iters)
		j.iters, j.samples = p.Iters, samples
		j.curve = append(j.curve, p)
		j.mu.Unlock()
		log.LogAttrs(ctx, slog.LevelDebug, "epoch",
			slog.Int("epoch", p.Epoch), slog.Int64("iters", p.Iters),
			slog.Float64("obj", p.Obj), slog.Float64("err_rate", p.ErrRate))
	}

	var out stopped
	var err error
	if r.stream != nil {
		out, err = streamTrain(ctx, t, r, body)
	} else {
		out, err = batchTrain(ctx, t, r)
	}
	switch {
	case err != nil && ctx.Err() != nil:
		// Cancelled (DELETE or shutdown). Withdraw the live model (the
		// name reverts to its previous owner, if any), persist partial
		// progress under "<model>.partial" so the run can be resumed or
		// inspected without clobbering the checkpoint of a finished model
		// of the same name (Restore would otherwise silently regress it on
		// restart), and do not publish the result.
		live.rollback()
		log.LogAttrs(ctx, slog.LevelInfo, "model rolled back")
		msg := err.Error()
		if len(out.weights) > 0 {
			msg = withCheckpointErr(msg, m.saveCheckpoint(j, j.model+".partial", out))
		}
		m.finish(j, StateCancelled, msg)
	case err != nil:
		live.rollback()
		log.LogAttrs(ctx, slog.LevelInfo, "model rolled back")
		m.finish(j, StateFailed, err.Error())
	default:
		if st.Load() == nil {
			// Live publication disabled: cut the single final version now.
			st.SetDType(out.dtype)
			st.PublishCopy(out.epoch, out.iters, out.weights)
		}
		if err := live.finalize(); err != nil {
			m.finish(j, StateFailed, err.Error())
			return
		}
		log.LogAttrs(ctx, slog.LevelInfo, "model finalized",
			slog.Uint64("seq", st.Seq()), slog.Int64("iters", out.iters))
		m.finish(j, StateDone, withCheckpointErr("", m.saveCheckpoint(j, j.model, out)))
	}
}

// finish records a terminal state.
func (m *Manager) finish(j *Job, state JobState, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	dur := j.finished.Sub(j.submitted)
	iters := j.iters
	j.mu.Unlock()
	m.jobLog(j).LogAttrs(context.Background(), slog.LevelInfo, "job finished",
		slog.String("state", string(state)), slog.String("error", errMsg),
		slog.Int64("iters", iters), slog.Duration("duration", dur))
}

// saveCheckpoint persists where the job stopped under the given model
// name, at the job's storage width.
func (m *Manager) saveCheckpoint(j *Job, name string, out stopped) error {
	path := m.CheckpointPath(name)
	if path == "" {
		return nil
	}
	j.mu.Lock()
	st := &checkpoint.State{
		Algo: j.algoName, Objective: j.objName, Dataset: j.dsName,
		Epoch: out.epoch, Iters: out.iters, DType: out.dtype, Weights: out.weights,
	}
	j.mu.Unlock()
	return checkpoint.SaveFile(path, st)
}

// withCheckpointErr appends a checkpoint failure to a job's error
// message. Persistence failures are recorded rather than failing the
// job: a finished model is already published and servable.
func withCheckpointErr(msg string, err error) string {
	switch {
	case err == nil:
		return msg
	case msg == "":
		return fmt.Sprintf("checkpoint: %v", err)
	default:
		return fmt.Sprintf("%s; checkpoint: %v", msg, err)
	}
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns job statuses in submission order.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel requests cancellation of a queued or running job. Cancelling a
// terminal job is a no-op that still reports found=true.
func (m *Manager) Cancel(id string) error {
	j, ok := m.Get(id)
	if !ok {
		return ErrNotFound
	}
	j.cancel()
	return nil
}

// Stats is a telemetry snapshot for /healthz and /metrics.
type Stats struct {
	Queued, Running, Done, Failed, Cancelled int
	UpdatesTotal                             int64
	UpdatesPerSec                            float64
}

// Stats counts jobs by state and reports the solver update throughput.
func (m *Manager) Stats() Stats {
	var s Stats
	for _, st := range m.Jobs() {
		switch st.State {
		case StateQueued:
			s.Queued++
		case StateRunning:
			s.Running++
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		case StateCancelled:
			s.Cancelled++
		}
	}
	s.UpdatesTotal = m.updates.Count()
	s.UpdatesPerSec = m.updates.Rate()
	return s
}

// Shutdown stops accepting submissions, cancels every queued and
// running job (their workers checkpoint partial progress) and waits for
// the workers to drain, or for ctx to expire.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.baseCancel()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown timed out: %w", ctx.Err())
	}
}
