// Package serve is the training-job and prediction service behind
// cmd/isasgd-serve: a stdlib-only net/http API that runs asynchronous
// training jobs on a bounded worker pool (solver.Train with context
// cancellation, incremental convergence reporting through
// solver.Config.Progress, checkpoint persistence) and serves online
// predictions from a lock-free, copy-on-write model registry backed by
// versioned weight snapshots (internal/snapshot): jobs publish
// mid-training versions while they run — live models hot-advance under
// concurrent predictions — and the request hot path is two atomic loads
// with zero steady-state allocations.
//
// Endpoints:
//
//	POST   /v1/jobs                      submit a training job
//	POST   /v1/jobs/stream               stream a LibSVM upload through online training
//	GET    /v1/jobs                      list jobs
//	GET    /v1/jobs/{id}                 job status
//	GET    /v1/jobs/{id}/curve           convergence curve so far
//	DELETE /v1/jobs/{id}                 cancel a queued/running job
//	GET    /v1/models                    list published models
//	POST   /v1/models/{name}/predict     score sparse instances
//	GET    /v1/models/{name}/checkpoint  export model as a checkpoint
//	PUT    /v1/models/{name}/checkpoint  import a checkpoint as a model
//	GET    /v1/replicate                 long-poll one model's newest weight version (binary frame)
//	GET    /healthz                      liveness + basic counters
//	GET    /metrics                      Prometheus-style text metrics
//
// Request and response bodies are JSON, errors included, except the
// checkpoint bodies, the metrics text, and a 200 /v1/replicate answer,
// which is one binary frame (see ReplicateResponse).
//
// The serving fleet grows horizontally from these pieces: an origin
// process (training jobs enabled) exposes /v1/replicate, and replica
// processes (Replicator, cmd/isasgd-serve -origin) long-poll it, mirror
// every published model into their own registries and serve the read
// traffic — see replicate.go. Predict handling can additionally coalesce
// concurrent requests per model (Batcher) and shed load past a bounded
// per-model admission queue (Admission) — see ServerOptions.
package serve

import (
	"fmt"
	"time"

	"github.com/isasgd/isasgd/internal/metrics"
)

// JobSpec is the POST /v1/jobs request body.
//
// Batch jobs (Kind "" or "batch") require exactly one data source:
// Dataset (a synthetic preset name: small, news20s, urls, kddas, kddbs)
// or Data (an inline LibSVM payload). Zero-valued solver fields select
// the same defaults as cmd/isasgd-train.
//
// Streaming jobs (Kind "stream") train online over a chunked LibSVM
// stream with internal/stream's sliding-window trainer: the source is
// either Path (a server-side file, trained asynchronously like any job)
// or the request body of POST /v1/jobs/stream (trained while the upload
// is in flight). Dim is required — a streaming model cannot grow
// mid-stream. Algo selects the sampler: sgd/asgd train with uniform
// draws, is-sgd/is-asgd (the default) with online importance sampling.
type JobSpec struct {
	// Model is the registry name the finished job publishes under;
	// defaults to the job id.
	Model string `json:"model,omitempty"`

	Kind string `json:"kind,omitempty"` // ""|"batch"|"stream"

	Dataset string  `json:"dataset,omitempty"` // synthetic preset name
	Scale   float64 `json:"scale,omitempty"`   // preset scale in (0,1]; default 1
	Data    string  `json:"data,omitempty"`    // inline LibSVM payload
	MinDim  int     `json:"min_dim,omitempty"` // minimum dim for inline data

	// Streaming source and window geometry (Kind "stream").
	Path            string `json:"path,omitempty"`              // server-side LibSVM file
	Dim             int    `json:"dim,omitempty"`               // fixed model dim; required
	BlockSize       int    `json:"block_size,omitempty"`        // rows per chunk; default 1024
	WindowBlocks    int    `json:"window_blocks,omitempty"`     // resident blocks; default 4
	UpdatesPerBlock int    `json:"updates_per_block,omitempty"` // update budget per chunk; default block rows
	Reservoir       int    `json:"reservoir,omitempty"`         // per-worker ISState capacity
	RebuildEvery    int    `json:"rebuild_every,omitempty"`     // alias rebuild cadence; default once per block

	// Adaptive update knobs (internal/adaptive). Importance selects the
	// streaming sampler's row weighting — "" or "bound" for the static
	// Lipschitz upper bound, "loss" for loss-feedback re-weighting
	// (streaming jobs only; incompatible with the uniform algos).
	// LossBeta is the loss-EMA observation weight for "loss" (0 selects
	// the default). AdaptC attenuates stale updates by 1/(1+c·τ) and
	// StalenessBound sheds updates with measured τ over the bound; both
	// apply to streaming jobs and to batch Engine algos (sgd/asgd/
	// is-sgd/is-asgd, batch ≤ 1). DCLambda enables DC-ASGD delay
	// compensation on batch Engine jobs only.
	Importance     string  `json:"importance,omitempty"`
	LossBeta       float64 `json:"loss_beta,omitempty"`
	AdaptC         float64 `json:"adapt_c,omitempty"`
	StalenessBound int64   `json:"staleness_bound,omitempty"`
	DCLambda       float64 `json:"dc_lambda,omitempty"`

	Algo      string  `json:"algo,omitempty"`      // default is-asgd
	Objective string  `json:"objective,omitempty"` // logistic-l1|sqhinge-l2|lsq-l2
	Precision string  `json:"precision,omitempty"` // f64 (default) | f32; f32 trains half-width weights/features (not for svrg-*/saga)
	Eta       float64 `json:"eta,omitempty"`       // regularization; default 1e-4
	Epochs    int     `json:"epochs,omitempty"`    // default 10
	Step      float64 `json:"step,omitempty"`      // default 0.5
	StepDecay float64 `json:"step_decay,omitempty"`
	Threads   int     `json:"threads,omitempty"`
	Balance   string  `json:"balance,omitempty"` // auto|balance|shuffle|sorted|lpt
	Batch     int     `json:"batch,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	EvalEvery int     `json:"eval_every,omitempty"` // curve granularity; default 1
}

// JobState is the lifecycle phase of a job.
type JobState string

// Job lifecycle states. Queued jobs wait for a worker-pool slot; exactly
// one of the three terminal states (done, failed, cancelled) is reached.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the GET /v1/jobs/{id} response body. For streaming jobs
// (Kind "stream") Epochs/Epoch count ingested blocks and the objective
// fields report the sliding-window evaluation after the last block.
type JobStatus struct {
	ID    string   `json:"id"`
	Model string   `json:"model"`
	Kind  string   `json:"kind,omitempty"`
	State JobState `json:"state"`
	// RequestID is the X-Request-ID of the submitting HTTP request,
	// stamped through the job's structured log lines for tracing.
	RequestID string     `json:"request_id,omitempty"`
	Algo      string     `json:"algo"`
	Objective string     `json:"objective"`
	Dataset   string     `json:"dataset"`
	Samples   int        `json:"samples"`
	Dim       int        `json:"dim"`
	Epochs    int        `json:"epochs"` // requested
	Epoch     int        `json:"epoch"`  // last evaluated
	Iters     int64      `json:"iters"`
	Obj       float64    `json:"objective_value"`
	ErrRate   float64    `json:"err_rate"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// CurvePoint is one JSON-rendered convergence record.
type CurvePoint struct {
	Epoch   int     `json:"epoch"`
	Iters   int64   `json:"iters"`
	WallSec float64 `json:"wall_sec"`
	Obj     float64 `json:"obj"`
	RMSE    float64 `json:"rmse"`
	ErrRate float64 `json:"err_rate"`
	BestErr float64 `json:"best_err"`
}

// CurveResponse is the GET /v1/jobs/{id}/curve response body.
type CurveResponse struct {
	ID    string       `json:"id"`
	State JobState     `json:"state"`
	Curve []CurvePoint `json:"curve"`
}

func curvePoints(c metrics.Curve) []CurvePoint {
	out := make([]CurvePoint, len(c))
	for i, p := range c {
		out[i] = CurvePoint{
			Epoch: p.Epoch, Iters: p.Iters, WallSec: p.Wall.Seconds(),
			Obj: p.Obj, RMSE: p.RMSE, ErrRate: p.ErrRate, BestErr: p.BestErr,
		}
	}
	return out
}

// Instance is one sparse feature vector in coordinate form. Indices are
// 0-based model coordinates; Indices and Values must have equal length.
// Indices at or beyond the model dimensionality are ignored (they
// contribute 0, the standard treatment of out-of-vocabulary features in
// linear-model serving); negative indices are rejected.
type Instance struct {
	Indices []int     `json:"indices"`
	Values  []float64 `json:"values"`
}

// Validate checks the coordinate-form shape (equal lengths, no negative
// indices); dimensionality is not checked here — out-of-range indices
// are ignored at scoring time (see Model.Predict).
func (in Instance) Validate() error {
	if len(in.Indices) != len(in.Values) {
		return fmt.Errorf("indices length %d != values length %d", len(in.Indices), len(in.Values))
	}
	for _, j := range in.Indices {
		if j < 0 {
			return fmt.Errorf("negative feature index %d", j)
		}
	}
	return nil
}

// PredictRequest is the POST /v1/models/{name}/predict request body.
// Either Instances (batched) or the inline Indices/Values pair (single)
// must be set.
type PredictRequest struct {
	Instances []Instance `json:"instances,omitempty"`
	// Single-instance shorthand.
	Indices []int     `json:"indices,omitempty"`
	Values  []float64 `json:"values,omitempty"`
}

// Prediction is one scored instance: the raw linear score w·x and the
// objective's ±1 label.
type Prediction struct {
	Score float64 `json:"score"`
	Label float64 `json:"label"`
}

// PredictResponse is the POST /v1/models/{name}/predict response body.
// Seq/Epoch/Iters identify the weight version (internal/snapshot) the
// whole batch was scored against — one consistent snapshot per request.
// Live reports that the model's training job was still running when the
// version was resolved, i.e. the weights hot-advance between requests.
type PredictResponse struct {
	Model       string       `json:"model"`
	Seq         uint64       `json:"seq"`
	Epoch       int          `json:"epoch"`
	Iters       int64        `json:"iters"`
	Live        bool         `json:"live"`
	Predictions []Prediction `json:"predictions"`
}

// ModelInfo is one entry of the GET /v1/models response. Seq and Live
// describe the snapshot pipeline: Seq is the current weight version's
// publication sequence number and Live marks a model whose training job
// is still publishing fresher versions (Epoch/Iters/Seq advance between
// calls).
type ModelInfo struct {
	Name        string    `json:"name"`
	Algo        string    `json:"algo"`
	Objective   string    `json:"objective"`
	Dataset     string    `json:"dataset"`
	Dim         int       `json:"dim"`
	Epoch       int       `json:"epoch"`
	Iters       int64     `json:"iters"`
	Seq         uint64    `json:"seq"`
	Live        bool      `json:"live"`
	DType       string    `json:"dtype,omitempty"` // weight storage precision of the training run: f64 | f32
	Published   time.Time `json:"published"`
	Requests    int64     `json:"requests"`    // predict requests served
	Predictions int64     `json:"predictions"` // instances scored (batch sizes summed)
	QPS         float64   `json:"qps"`         // average predict requests/sec

	// Replica marks a model maintained by a Replicator pulling from an
	// origin server rather than by a local training job; Lag is then the
	// replication lag in seconds — how far behind the origin's publish
	// the local copy applied its newest version (0 once the replica has
	// confirmed it is current). Absent on origin-owned models.
	Replica bool     `json:"replica,omitempty"`
	Lag     *float64 `json:"lag_seconds,omitempty"`
}

// ReplicateResponse is one answer of GET /v1/replicate?model=name&since=seq
// — one model's newest weight version, long-polled: the origin blocks
// until its store holds a version with Seq > since, or its poll window
// expires, in which case Weights is nil and Seq describes the version
// the caller should already hold. PublishedUnix is the origin's wall
// clock at the version's publish (Unix nanoseconds, 0 when unknown),
// the reference point for the replica's lag gauges.
//
// A 200 answer is one binary frame (Content-Type
// application/octet-stream) built from internal/frame, the codec of the
// cluster's pull frame; errors stay JSON (errorBody):
//
//	seq        uvarint
//	epoch      uvarint
//	iters      uvarint
//	published  uvarint  PublishedUnix
//	live       1 byte   0 or 1
//	algo       string   uvarint length ≤ frame.MaxString (4096), then the bytes
//	objective  string
//	dataset    string
//	width      1 byte   8 (f64 store) or 4 (f32-stamped store)
//	count      uvarint  0 when the caller is current, else Dim
//	values     count × width bytes, little-endian
//
// The width stands for the store's dtype. Width 4 packs the version's
// float32 view (snapshot.Version.W32, the bytes of
// wire32.AppendNarrow), half the bytes of width 8 and lossless for
// f32-trained weights. The replica reads at most the longest frame of
// the Dim the origin lists on /v1/models (itself capped at maxModelDim),
// then decodes under frame.Reader's rules; count must fit that Dim and
// the bytes that arrived before the values are allocated.
type ReplicateResponse struct {
	Seq           uint64
	Epoch         int
	Iters         int64
	PublishedUnix int64
	Live          bool
	Algo          string
	Objective     string
	Dataset       string
	DType         string    // model.PrecisionF64 (width 8) or model.PrecisionF32 (width 4)
	Weights       []float64 // nil when the caller is current
}

// errorBody is the JSON error envelope every non-2xx response uses.
type errorBody struct {
	Error string `json:"error"`
}
