// Package serve is the training-job and prediction service behind
// cmd/isasgd-serve: a stdlib-only net/http API that runs asynchronous
// training jobs on a bounded worker pool (core.Train with context
// cancellation, incremental convergence reporting through
// core.Config.Progress, checkpoint persistence) and serves online
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
// checkpoint bodies, the metrics text, and a 200 /v1/replicate answer.
// A JSON request body is exactly one value: anything but whitespace
// after it is a 400 (earlier versions ignored trailing bytes). Predict
// bodies take a byte-level fast path (predictwire.go): a body in its
// grammar is parsed in place into bitwise the numbers encoding/json
// would decode, and every other body goes to encoding/json, so what is
// accepted and each error text are encoding/json's. A 200 predict
// answer is appended byte for byte as encoding/json would write it.
// That answer is one version frame (frame.Header documents its layout),
// the same frame a cluster coordinator answers a worker's pull with:
// /v1/replicate?model=name&since=seq is the model's version feed
// (frame.Serve). It blocks until the model's store holds a version newer
// than since, or the server's ReplicateWindow passes, and then
// describes the newest version: seq, epoch, iters, publish time, live,
// algo, objective and dataset, then the store's width (8 for f64, 4 for
// an f32-stamped store, whose values are exactly its float32 view), and
// the weights only when the caller's cursor is behind. A replica reads
// at most the longest frame of the Dim the origin lists on /v1/models
// (itself capped at maxModelDim), and decodes under frame.Reader's
// rules.
//
// The serving fleet grows horizontally from these pieces: an origin
// process (training jobs enabled) exposes /v1/replicate, and replica
// processes (Replicator, cmd/isasgd-serve -origin) long-poll it, mirror
// every published model into their own registries and serve the read
// traffic — see replicate.go. Every predict, on the origin or a
// replica, takes one path: Server.predict decodes the body and
// Registry.Predict scores it against one resolved version.
package serve

import (
	"fmt"
	"time"

	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/spec"
)

// JobSpec is the POST /v1/jobs request body: the one training spec
// (spec.Spec documents every field). A zero knob takes the serve
// surface's default; spec.Spec.Validate and the manager's resource
// bounds answer 400 for the rest.
type JobSpec = spec.Spec

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

// errorBody is the JSON error envelope every non-2xx response uses.
type errorBody struct {
	Error string `json:"error"`
}
