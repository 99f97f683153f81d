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

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/checkpoint"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/solver"
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
	cfg       solver.Config // compiled config (defaults applied)
	kind      string        // "" for batch jobs, "stream" for streaming jobs
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
// worker goroutine needs to call solver.Train (batch) or drive a
// stream.Trainer (streaming).
type resolved struct {
	synth *dataset.SynthConfig // preset jobs synthesize in the worker
	ds    *dataset.Dataset     // inline jobs parse at submission
	obj   objective.Objective
	cfg   solver.Config

	stream     *stream.Config // non-nil for streaming jobs
	streamPath string         // server-side source ("" = fed from an upload body)
	blockSize  int
}

// compile validates a spec and resolves names to library values.
// Validation errors surface synchronously at submission time so the API
// can answer 400 instead of parking a doomed job in the queue. bodyFed
// reports that the streaming source is an upload body rather than Path;
// streamRoot is the directory file-fed jobs are confined to ("" rejects
// them).
func compile(spec JobSpec, bodyFed bool, streamRoot string) (*resolved, error) {
	switch spec.Kind {
	case "", "batch":
		if bodyFed {
			return nil, fmt.Errorf("serve: upload-fed jobs must set kind \"stream\"")
		}
		return compileBatch(spec)
	case "stream":
		return compileStream(spec, bodyFed, streamRoot)
	default:
		return nil, fmt.Errorf("serve: unknown job kind %q (want batch or stream)", spec.Kind)
	}
}

func compileBatch(spec JobSpec) (*resolved, error) {
	r := &resolved{}

	if spec.Path != "" || spec.Dim != 0 || spec.BlockSize != 0 || spec.WindowBlocks != 0 ||
		spec.UpdatesPerBlock != 0 || spec.Reservoir != 0 || spec.RebuildEvery != 0 {
		return nil, fmt.Errorf("serve: streaming fields require kind \"stream\"")
	}
	switch {
	case spec.Dataset != "" && spec.Data != "":
		return nil, fmt.Errorf("serve: set either dataset or data, not both")
	case spec.Dataset != "":
		scale := spec.Scale
		if scale == 0 {
			scale = 1
		}
		if scale <= 0 || scale > 1 {
			return nil, fmt.Errorf("serve: scale must be in (0,1], got %g", spec.Scale)
		}
		var cfg dataset.SynthConfig
		switch spec.Dataset {
		case "small":
			cfg = dataset.Small(spec.Seed)
		case "news20s":
			cfg = dataset.News20Like(scale, spec.Seed)
		case "urls":
			cfg = dataset.URLLike(scale, spec.Seed)
		case "kddas":
			cfg = dataset.KDDALike(scale, spec.Seed)
		case "kddbs":
			cfg = dataset.KDDBLike(scale, spec.Seed)
		default:
			return nil, fmt.Errorf("serve: unknown dataset preset %q (want small, news20s, urls, kddas or kddbs)", spec.Dataset)
		}
		r.synth = &cfg
	case spec.Data != "":
		ds, err := dataset.ParseLibSVM(strings.NewReader(spec.Data), "inline", spec.MinDim)
		if err != nil {
			return nil, fmt.Errorf("serve: parse inline data: %w", err)
		}
		r.ds = ds
	default:
		return nil, fmt.Errorf("serve: a dataset preset or inline data is required")
	}

	algoName := spec.Algo
	if algoName == "" {
		algoName = "is-asgd"
	}
	algo, err := solver.ParseAlgo(algoName)
	if err != nil {
		return nil, err
	}
	// Mirror the solver's precision validation synchronously: unknown
	// names and the float64-only solvers answer 400 at submission, not an
	// asynchronous failure.
	prec, err := model.ParsePrecision(spec.Precision)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if prec == model.PrecisionF32 && (algo == solver.SVRGSGD || algo == solver.SVRGASGD || algo == solver.SAGA) {
		return nil, fmt.Errorf("serve: precision f32 is not supported for %s (dense correction passes are float64-only)", algoName)
	}
	if spec.Importance != "" || spec.LossBeta != 0 {
		return nil, fmt.Errorf("serve: importance/loss_beta select the streaming sampler weighting and require kind \"stream\"")
	}
	// Mirror the solver's adaptive validation synchronously: the policy
	// knobs are Engine-only (single-sample updates), so reject the dense-
	// correction algos and minibatch at submission.
	pol := adaptive.Policy{AdaptC: spec.AdaptC, StalenessBound: spec.StalenessBound, DCLambda: spec.DCLambda}
	if err := pol.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if spec.StalenessBound < 0 {
		return nil, fmt.Errorf("serve: staleness_bound must be non-negative, got %d", spec.StalenessBound)
	}
	if pol.Enabled() {
		switch {
		case algo == solver.SVRGSGD || algo == solver.SVRGASGD || algo == solver.SAGA:
			return nil, fmt.Errorf("serve: adaptive knobs are not supported for %s", algoName)
		case spec.Batch > 1:
			return nil, fmt.Errorf("serve: adaptive knobs do not apply to minibatch jobs")
		}
	}

	var err2 error
	if r.obj, err2 = parseObjective(spec); err2 != nil {
		return nil, err2
	}
	bal, err2 := parseBalanceMode(spec.Balance)
	if err2 != nil {
		return nil, err2
	}

	epochs := spec.Epochs
	if epochs == 0 {
		epochs = 10
	}
	step := spec.Step
	if step == 0 {
		step = 0.5
	}
	// Mirror solver validation synchronously (plus service-level resource
	// bounds) so a doomed or abusive spec gets a 400 at submission instead
	// of a 202 followed by an asynchronous failure — or a single request
	// spawning an unbounded number of worker goroutines.
	const (
		maxEpochs  = 100_000_000
		maxBatch   = 1 << 20
		maxThreads = 1 << 10
	)
	switch {
	case epochs < 0 || epochs > maxEpochs:
		return nil, fmt.Errorf("serve: epochs must be in [1, %d], got %d", maxEpochs, spec.Epochs)
	case step < 0 || math.IsNaN(step) || math.IsInf(step, 0):
		return nil, fmt.Errorf("serve: step must be positive and finite, got %g", spec.Step)
	case spec.StepDecay < 0 || spec.StepDecay > 1:
		return nil, fmt.Errorf("serve: step_decay must be in (0, 1], got %g", spec.StepDecay)
	case spec.Eta < 0 || math.IsNaN(spec.Eta) || math.IsInf(spec.Eta, 0):
		return nil, fmt.Errorf("serve: eta must be non-negative and finite, got %g", spec.Eta)
	case spec.Threads < 0 || spec.Threads > maxThreads:
		return nil, fmt.Errorf("serve: threads must be in [0, %d], got %d", maxThreads, spec.Threads)
	case spec.Batch < 0 || spec.Batch > maxBatch:
		return nil, fmt.Errorf("serve: batch must be in [0, %d], got %d", maxBatch, spec.Batch)
	case spec.EvalEvery < 0:
		return nil, fmt.Errorf("serve: eval_every must be non-negative, got %d", spec.EvalEvery)
	}
	threads := spec.Threads
	if np := runtime.GOMAXPROCS(0); threads > np {
		threads = np // more workers than cores only adds conflict
	}
	r.cfg = solver.Config{
		Algo: algo, Epochs: epochs, Step: step, StepDecay: spec.StepDecay,
		Threads: threads, Balance: bal, Batch: spec.Batch, Seed: spec.Seed,
		EvalEvery: spec.EvalEvery, Precision: prec,
		AdaptC: spec.AdaptC, StalenessBound: spec.StalenessBound, DCLambda: spec.DCLambda,
	}
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

// parseObjective resolves the spec's objective name and regularization.
func parseObjective(spec JobSpec) (objective.Objective, error) {
	eta := spec.Eta
	if eta == 0 {
		eta = 1e-4
	}
	switch spec.Objective {
	case "", "logistic-l1":
		return objective.LogisticL1{Eta: eta}, nil
	case "sqhinge-l2":
		return objective.SquaredHingeL2{Lambda: eta}, nil
	case "lsq-l2":
		return objective.LeastSquaresL2{Eta: eta}, nil
	default:
		return nil, fmt.Errorf("serve: unknown objective %q", spec.Objective)
	}
}

// parseBalanceMode resolves a balance-mode name.
func parseBalanceMode(s string) (balance.Mode, error) {
	switch s {
	case "", "auto":
		return balance.Auto, nil
	case "balance":
		return balance.ForceBalance, nil
	case "shuffle":
		return balance.ForceShuffle, nil
	case "sorted":
		return balance.Sorted, nil
	case "lpt":
		return balance.LPT, nil
	default:
		return 0, fmt.Errorf("serve: unknown balance mode %q", s)
	}
}

// compileStream validates a streaming spec and builds the
// stream.Config. The source is Path (server-side file, confined to
// streamRoot) or, when bodyFed, the upload body handed to SubmitStream.
func compileStream(spec JobSpec, bodyFed bool, streamRoot string) (*resolved, error) {
	r := &resolved{}

	switch {
	case spec.Dataset != "" || spec.Data != "":
		return nil, fmt.Errorf("serve: streaming jobs take a path or an upload body, not dataset/data")
	case spec.Batch != 0 || spec.Epochs != 0 || spec.EvalEvery != 0:
		return nil, fmt.Errorf("serve: batch/epochs/eval_every do not apply to streaming jobs")
	case bodyFed && spec.Path != "":
		return nil, fmt.Errorf("serve: upload-fed streaming jobs must not also set path")
	case !bodyFed && spec.Path == "":
		return nil, fmt.Errorf("serve: streaming jobs require a path (or use POST /v1/jobs/stream with a body)")
	}
	if !bodyFed {
		p, err := resolveStreamPath(streamRoot, spec.Path)
		if err != nil {
			return nil, err
		}
		fi, err := os.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("serve: stream path: %w", err)
		}
		if fi.IsDir() {
			return nil, fmt.Errorf("serve: stream path %q is a directory", spec.Path)
		}
		r.streamPath = p
	}

	// Service-level resource bounds, mirroring compileBatch.
	const (
		maxDim       = 1 << 28
		maxBlockSize = 1 << 22
		maxWindow    = 1 << 12
		maxUpdates   = 1 << 26
		maxReservoir = 1 << 24
		maxThreads   = 1 << 10
	)
	switch {
	case spec.Dim < 1 || spec.Dim > maxDim:
		return nil, fmt.Errorf("serve: streaming jobs require dim in [1, %d], got %d", maxDim, spec.Dim)
	case spec.BlockSize < 0 || spec.BlockSize > maxBlockSize:
		return nil, fmt.Errorf("serve: block_size must be in [0, %d], got %d", maxBlockSize, spec.BlockSize)
	case spec.WindowBlocks < 0 || spec.WindowBlocks > maxWindow:
		return nil, fmt.Errorf("serve: window_blocks must be in [0, %d], got %d", maxWindow, spec.WindowBlocks)
	case spec.UpdatesPerBlock < 0 || spec.UpdatesPerBlock > maxUpdates:
		return nil, fmt.Errorf("serve: updates_per_block must be in [0, %d], got %d", maxUpdates, spec.UpdatesPerBlock)
	case spec.Reservoir < 0 || spec.Reservoir > maxReservoir:
		return nil, fmt.Errorf("serve: reservoir must be in [0, %d], got %d", maxReservoir, spec.Reservoir)
	case spec.RebuildEvery < 0:
		return nil, fmt.Errorf("serve: rebuild_every must be non-negative, got %d", spec.RebuildEvery)
	case spec.Threads < 0 || spec.Threads > maxThreads:
		return nil, fmt.Errorf("serve: threads must be in [0, %d], got %d", maxThreads, spec.Threads)
	case spec.StepDecay < 0 || spec.StepDecay > 1:
		return nil, fmt.Errorf("serve: step_decay must be in (0, 1], got %g", spec.StepDecay)
	case spec.Eta < 0 || math.IsNaN(spec.Eta) || math.IsInf(spec.Eta, 0):
		return nil, fmt.Errorf("serve: eta must be non-negative and finite, got %g", spec.Eta)
	}

	var err error
	if r.obj, err = parseObjective(spec); err != nil {
		return nil, err
	}
	bal, err := parseBalanceMode(spec.Balance)
	if err != nil {
		return nil, err
	}
	prec, err := model.ParsePrecision(spec.Precision)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	// Algo selects the online sampler: the uniform baselines stream with
	// uniform draws, the IS variants with the reservoir-backed importance
	// state. Worker count is the async dial exactly as in batch jobs.
	uniform := false
	algoName := spec.Algo
	if algoName == "" {
		algoName = "is-asgd"
	}
	algo, err := solver.ParseAlgo(algoName)
	if err != nil {
		return nil, err
	}
	switch algo {
	case solver.SGD, solver.ASGD:
		uniform = true
	case solver.ISSGD, solver.ISASGD:
	default:
		return nil, fmt.Errorf("serve: algo %q does not support streaming (want sgd, asgd, is-sgd or is-asgd)", algoName)
	}

	// Mirror the stream trainer's adaptive validation synchronously so a
	// doomed spec answers 400 at submission instead of failing async.
	switch spec.Importance {
	case "", "bound":
	case "loss":
		if uniform {
			return nil, fmt.Errorf("serve: importance \"loss\" requires an importance-sampling algo (is-sgd or is-asgd)")
		}
	default:
		return nil, fmt.Errorf("serve: unknown importance %q (want bound or loss)", spec.Importance)
	}
	if spec.DCLambda != 0 {
		return nil, fmt.Errorf("serve: dc_lambda applies to batch jobs only (streaming updates have no retained base)")
	}
	if err := (adaptive.Policy{AdaptC: spec.AdaptC, StalenessBound: spec.StalenessBound}).Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if spec.StalenessBound < 0 {
		return nil, fmt.Errorf("serve: staleness_bound must be non-negative, got %d", spec.StalenessBound)
	}

	step := spec.Step
	if step == 0 {
		step = 0.5
	}
	if step < 0 || math.IsNaN(step) || math.IsInf(step, 0) {
		return nil, fmt.Errorf("serve: step must be positive and finite, got %g", spec.Step)
	}
	threads := spec.Threads
	if algo == solver.SGD || algo == solver.ISSGD {
		threads = 1 // sequential algos are sequential, matching isasgd-train -stream
	}
	if np := runtime.GOMAXPROCS(0); threads > np {
		threads = np
	}
	r.blockSize = spec.BlockSize
	r.stream = &stream.Config{
		Obj: r.obj, Dim: spec.Dim,
		Workers: threads, Step: step, StepDecay: spec.StepDecay,
		WindowBlocks: spec.WindowBlocks, UpdatesPerBlock: spec.UpdatesPerBlock,
		Reservoir: spec.Reservoir, RebuildEvery: spec.RebuildEvery,
		Mode: bal, Uniform: uniform, Seed: spec.Seed,
		Precision:  prec,
		Importance: spec.Importance, LossBeta: spec.LossBeta,
		AdaptC: spec.AdaptC, StalenessBound: spec.StalenessBound,
	}
	// Record the algo for status reporting.
	r.cfg = solver.Config{Algo: algo, Step: step, Seed: spec.Seed, Threads: threads}
	return r, nil
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
	if spec.Precision == "" {
		spec.Precision = m.defaultPrec
	}
	r, err := compile(spec, false, m.streamRoot)
	if err != nil {
		return nil, err
	}
	j, jobCtx, err := m.register(spec, r, obs.RequestID(ctx))
	if err != nil {
		return nil, err
	}
	m.jobLog(j).LogAttrs(jobCtx, slog.LevelInfo, "job submitted",
		slog.String("kind", j.kind), slog.String("algo", j.algoName),
		slog.String("dataset", j.dsName))
	go m.run(jobCtx, j, r)
	return j, nil
}

// jobLog returns the job-scoped structured logger.
func (m *Manager) jobLog(j *Job) *slog.Logger {
	return m.log.With(
		slog.String("job", j.ID),
		slog.String("model", j.model),
		slog.String("request_id", j.reqID),
	)
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
	if spec.Precision == "" {
		spec.Precision = m.defaultPrec
	}
	r, err := compile(spec, true, m.streamRoot)
	if err != nil {
		return nil, err
	}
	j, jobCtx, err := m.register(spec, r, obs.RequestID(ctx))
	if err != nil {
		return nil, err
	}
	m.jobLog(j).LogAttrs(jobCtx, slog.LevelInfo, "job submitted",
		slog.String("kind", j.kind), slog.String("algo", j.algoName),
		slog.String("dataset", j.dsName))
	stop := context.AfterFunc(ctx, j.cancel)
	defer stop()
	m.runStream(jobCtx, j, r, body)
	return j, nil
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

// run executes one job: waits for a pool slot, trains — publishing live
// weight snapshots at the manager's cadence — and checkpoints. It is the
// only writer of terminal state.
func (m *Manager) run(ctx context.Context, j *Job, r *resolved) {
	if r.stream != nil {
		m.runStream(ctx, j, r, nil)
		return
	}
	defer m.wg.Done()
	defer close(j.done)
	defer j.cancel()

	// Bounded pool: block until a slot frees or the job is cancelled
	// while still queued.
	select {
	case m.sem <- struct{}{}:
		defer func() { <-m.sem }()
	case <-ctx.Done():
		m.finish(j, StateCancelled, "cancelled while queued", nil)
		return
	}
	// When cancellation and a free slot race (e.g. shutdown with queued
	// jobs), select may pick the slot; re-check so we do not synthesize a
	// large dataset and run an epoch-0 evaluation only to discard them.
	if ctx.Err() != nil {
		m.finish(j, StateCancelled, "cancelled while queued", nil)
		return
	}

	ds := r.ds
	if r.synth != nil {
		var err error
		ds, err = dataset.Synthesize(*r.synth)
		if err != nil {
			m.finish(j, StateFailed, fmt.Sprintf("synthesize: %v", err), nil)
			return
		}
	}

	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.samples = ds.N()
	j.dim = ds.Dim()
	j.mu.Unlock()

	log := m.jobLog(j)
	log.LogAttrs(ctx, slog.LevelInfo, "job started",
		slog.Int("samples", ds.N()), slog.Int("dim", ds.Dim()))

	st := snapshot.NewStore()
	live := m.newLiveModel(j, r.obj, ds.Name, st)

	cfg := r.cfg
	cfg.Instruments = obs.NewTrainInstruments(m.Obs(), j.model)
	// A publish rejected for non-finite weights means serving stops
	// advancing while the job looks healthy — surface it immediately
	// rather than waiting for the run's terminal divergence check.
	st.SetOnReject(func(epoch int, iters int64) {
		cfg.Instruments.SnapshotRejected.Inc()
		log.LogAttrs(ctx, slog.LevelWarn, "snapshot publish rejected: non-finite weights",
			slog.Int("epoch", epoch), slog.Int64("iters", iters))
	})
	if m.publishEvery > 0 {
		cfg.Snapshots = st
		cfg.PublishEvery = m.publishEvery
		// Register the live model from the publication hook rather than
		// the (possibly sparse) evaluation cadence. A cold-start name goes
		// live at the epoch-0 version — servable immediately, if briefly
		// with untrained weights; a name already serving a finished model
		// keeps serving it until this retrain has completed at least one
		// epoch, so a fresh job never replaces good weights with zeros.
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
	cfg.Progress = func(p metrics.Point) {
		j.mu.Lock()
		m.updates.Add(p.Iters - j.iters)
		j.iters = p.Iters
		j.curve = append(j.curve, p)
		j.mu.Unlock()
		log.LogAttrs(ctx, slog.LevelDebug, "epoch",
			slog.Int("epoch", p.Epoch), slog.Int64("iters", p.Iters),
			slog.Float64("obj", p.Obj), slog.Float64("err_rate", p.ErrRate))
	}

	res, err := solver.Train(ctx, ds, r.obj, cfg)
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
		m.finish(j, StateCancelled, err.Error(), nil)
		if res != nil && len(res.Weights) > 0 {
			m.saveCheckpoint(j, j.model+".partial", r.obj, res)
		}
	case err != nil:
		live.rollback()
		log.LogAttrs(ctx, slog.LevelInfo, "model rolled back")
		m.finish(j, StateFailed, err.Error(), nil)
	default:
		if st.Load() == nil {
			// Live publication disabled: cut the single final version now.
			st.PublishCopy(res.Curve.Final().Epoch, res.Iters, res.Weights)
		}
		if pubErr := live.finalize(); pubErr != nil {
			m.finish(j, StateFailed, pubErr.Error(), nil)
			return
		}
		log.LogAttrs(ctx, slog.LevelInfo, "model finalized",
			slog.Uint64("seq", st.Seq()), slog.Int64("iters", res.Iters))
		m.finish(j, StateDone, "", res)
		m.saveCheckpoint(j, j.model, r.obj, res)
	}
}

// runStream executes one streaming job: waits for a pool slot, drives a
// stream.Trainer over the source (body, or the spec's path when body is
// nil), records one curve point per ingested block (sliding-window
// evaluation), and publishes + checkpoints the final model. Like run, it
// is the only writer of terminal state for its job.
func (m *Manager) runStream(ctx context.Context, j *Job, r *resolved, body io.Reader) {
	defer m.wg.Done()
	defer close(j.done)
	defer j.cancel()

	select {
	case m.sem <- struct{}{}:
		defer func() { <-m.sem }()
	case <-ctx.Done():
		m.finish(j, StateCancelled, "cancelled while queued", nil)
		return
	}
	if ctx.Err() != nil {
		m.finish(j, StateCancelled, "cancelled while queued", nil)
		return
	}

	src := body
	name := "stream-upload"
	if src == nil {
		f, err := os.Open(r.streamPath)
		if err != nil {
			m.finish(j, StateFailed, fmt.Sprintf("open stream: %v", err), nil)
			return
		}
		defer f.Close()
		src = f
		name = r.streamPath
	}

	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()

	log := m.jobLog(j)
	log.LogAttrs(ctx, slog.LevelInfo, "job started",
		slog.String("source", name), slog.Int("dim", j.dim))

	st := snapshot.NewStore()
	live := m.newLiveModel(j, r.obj, j.dsName, st)

	scfg := *r.stream
	scfg.Instruments = obs.NewTrainInstruments(m.Obs(), j.model)
	st.SetOnReject(func(block int, updates int64) {
		scfg.Instruments.SnapshotRejected.Inc()
		log.LogAttrs(ctx, slog.LevelWarn, "snapshot publish rejected: non-finite weights",
			slog.Int("block", block), slog.Int64("updates", updates))
	})
	if m.publishEvery > 0 {
		scfg.Snapshots = st
		scfg.PublishEvery = m.publishEvery
		// Stream versions are always cut after training on a block, so the
		// first published version is already trained — go live on it.
		st.SetOnPublish(func(v *snapshot.Version) {
			live.publish()
			log.LogAttrs(ctx, slog.LevelDebug, "snapshot published",
				slog.Uint64("seq", v.Seq), slog.Int("block", v.Epoch),
				slog.Int64("updates", v.Iters))
		})
	}
	tr, err := stream.NewTrainer(scfg)
	if err != nil {
		m.finish(j, StateFailed, err.Error(), nil)
		return
	}
	start := time.Now()
	bestErr := math.Inf(1)
	tr.SetOnBlock(func(s stream.BlockStats) {
		obj, rmse, errRate, _ := tr.EvaluateWindow()
		if errRate < bestErr {
			bestErr = errRate
		}
		p := metrics.Point{
			Epoch: int(s.Block) + 1, Iters: s.Updates, Wall: time.Since(start),
			Obj: obj, RMSE: rmse, ErrRate: errRate, BestErr: bestErr,
		}
		j.mu.Lock()
		m.updates.Add(p.Iters - j.iters)
		j.iters = p.Iters
		j.samples = int(tr.Rows())
		j.curve = append(j.curve, p)
		j.mu.Unlock()
	})

	res, err := tr.Run(ctx, stream.NewReader(src, name, r.blockSize))
	switch {
	case err != nil && ctx.Err() != nil:
		live.rollback()
		log.LogAttrs(ctx, slog.LevelInfo, "model rolled back")
		m.finish(j, StateCancelled, err.Error(), nil)
		if res != nil && len(res.Weights) > 0 {
			m.saveStreamCheckpoint(j, j.model+".partial", res)
		}
	case err != nil:
		live.rollback()
		log.LogAttrs(ctx, slog.LevelInfo, "model rolled back")
		m.finish(j, StateFailed, err.Error(), nil)
	case res.Rows == 0:
		live.rollback()
		m.finish(j, StateFailed, "stream contained no rows", nil)
	default:
		if st.Load() == nil {
			// Live publication disabled: cut the single final version now.
			st.PublishCopy(int(res.Blocks), res.Updates, res.Weights)
		}
		if pubErr := live.finalize(); pubErr != nil {
			m.finish(j, StateFailed, pubErr.Error(), nil)
			return
		}
		log.LogAttrs(ctx, slog.LevelInfo, "model finalized",
			slog.Uint64("seq", st.Seq()), slog.Int64("updates", res.Updates))
		m.finish(j, StateDone, "", nil)
		m.saveStreamCheckpoint(j, j.model, res)
	}
}

// saveStreamCheckpoint persists a streaming result; failures annotate
// the job as in saveCheckpoint.
func (m *Manager) saveStreamCheckpoint(j *Job, name string, res *stream.Result) {
	path := m.CheckpointPath(name)
	if path == "" {
		return
	}
	j.mu.Lock()
	st := &checkpoint.State{
		Algo: j.algoName, Objective: j.objName, Dataset: j.dsName,
		Epoch: int(res.Blocks), Iters: res.Updates,
		Step: j.cfg.Step, Seed: j.cfg.Seed,
		Dim: len(res.Weights), Weights: res.Weights, Curve: j.curve,
	}
	j.mu.Unlock()
	if err := checkpoint.SaveFile(path, st); err != nil {
		j.mu.Lock()
		if j.errMsg != "" {
			j.errMsg += "; "
		}
		j.errMsg += fmt.Sprintf("checkpoint: %v", err)
		j.mu.Unlock()
	}
}

// finish records a terminal state.
func (m *Manager) finish(j *Job, state JobState, errMsg string, res *solver.Result) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	if res != nil && len(j.curve) == 0 {
		j.curve = res.Curve
	}
	dur := j.finished.Sub(j.submitted)
	iters := j.iters
	j.mu.Unlock()
	m.jobLog(j).LogAttrs(context.Background(), slog.LevelInfo, "job finished",
		slog.String("state", string(state)), slog.String("error", errMsg),
		slog.Int64("iters", iters), slog.Duration("duration", dur))
}

// saveCheckpoint persists the job's result under the given model name;
// persistence failures are recorded on the job's error rather than
// failing it (a finished model is already published and servable).
func (m *Manager) saveCheckpoint(j *Job, name string, obj objective.Objective, res *solver.Result) {
	path := m.CheckpointPath(name)
	if path == "" {
		return
	}
	st := &checkpoint.State{
		Algo: res.Algo.String(), Objective: obj.Name(), Dataset: j.dsName,
		Epoch: res.Curve.Final().Epoch, Iters: res.Iters,
		Step: j.cfg.Step, Seed: j.cfg.Seed,
		Dim: len(res.Weights), Weights: res.Weights, Curve: res.Curve,
	}
	if err := checkpoint.SaveFile(path, st); err != nil {
		j.mu.Lock()
		if j.errMsg != "" {
			j.errMsg += "; "
		}
		j.errMsg += fmt.Sprintf("checkpoint: %v", err)
		j.mu.Unlock()
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
