package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/isasgd/isasgd/internal/checkpoint"
	"github.com/isasgd/isasgd/internal/obs"
)

// maxBodyBytes bounds request bodies (inline LibSVM payloads, batched
// predict requests, checkpoint imports) so one client cannot exhaust
// memory.
const maxBodyBytes = 64 << 20

// ServerOptions select the fleet-facing behaviors of a Server beyond
// the default single-process configuration.
type ServerOptions struct {
	// ReadOnly rejects every mutating endpoint (job submission, model
	// deletion, checkpoint import) with 403 — the replica posture:
	// writes belong on the origin, replicas serve reads. Predict stays
	// available (it is a read despite its POST method).
	ReadOnly bool
	// Batch enables predict micro-batching when Batch.Window > 0:
	// concurrent predicts for one model coalesce onto a single snapshot
	// resolve and scoring pass (see Batcher).
	Batch BatcherConfig
	// Admission enables per-model admission control when
	// Admission.MaxInFlight > 0: bounded concurrency and queueing with
	// 429 + Retry-After shedding past the bound (see Admission).
	Admission AdmissionConfig
	// ReplicateWindow is the server-side long-poll ceiling of
	// GET /v1/replicate: a poll with no fresher version to report is
	// answered (without weights) after this long. Default 25s.
	ReplicateWindow time.Duration
}

// Server is the HTTP facade over a Manager and its Registry. Every
// request passes through obs.Middleware, which assigns (or propagates)
// an X-Request-ID, counts it into the service metrics registry, and
// logs one structured line through the manager's logger.
type Server struct {
	mgr     *Manager
	mux     *http.ServeMux
	handler http.Handler
	start   time.Time

	readOnly   bool
	batcher    *Batcher   // nil = unbatched predicts
	admit      *Admission // nil = no admission control
	retryAfter string     // precomputed Retry-After header value for sheds
	replWindow time.Duration

	// Predict latency breakdown, pre-resolved at construction so the
	// handler touches stable atomic instruments, never a vec lookup.
	phaseDecode  *obs.Histogram
	phaseResolve *obs.Histogram
	phaseScore   *obs.Histogram
	phaseEncode  *obs.Histogram
}

// NewServer builds the router with default options. The manager's
// logger is captured here — install it (Manager.SetLogger) before
// constructing the server.
func NewServer(mgr *Manager) *Server { return NewServerOpts(mgr, ServerOptions{}) }

// NewServerOpts is NewServer with fleet options (read-only replica
// posture, predict micro-batching, admission control).
func NewServerOpts(mgr *Manager, opts ServerOptions) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux(), start: time.Now()}
	s.readOnly = opts.ReadOnly
	s.replWindow = opts.ReplicateWindow
	if s.replWindow <= 0 {
		s.replWindow = 25 * time.Second
	}
	if opts.Batch.Window > 0 {
		s.batcher = NewBatcher(mgr.Registry(), opts.Batch)
	}
	if opts.Admission.MaxInFlight > 0 {
		s.admit = NewAdmission(mgr.Obs(), opts.Admission)
		s.retryAfter = strconv.Itoa(s.admit.RetryAfterSeconds())
	}
	s.mux.HandleFunc("POST /v1/jobs", s.submitJob)
	s.mux.HandleFunc("POST /v1/jobs/stream", s.submitStreamJob)
	s.mux.HandleFunc("GET /v1/jobs", s.listJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.getJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/curve", s.getCurve)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancelJob)
	s.mux.HandleFunc("GET /v1/models", s.listModels)
	s.mux.HandleFunc("DELETE /v1/models/{name}", s.deleteModel)
	s.mux.HandleFunc("POST /v1/models/{name}/predict", s.predict)
	s.mux.HandleFunc("GET /v1/models/{name}/checkpoint", s.exportModel)
	s.mux.HandleFunc("PUT /v1/models/{name}/checkpoint", s.importModel)
	s.mux.HandleFunc("GET /v1/replicate", s.replicate)
	s.mux.HandleFunc("GET /healthz", s.healthz)

	o := mgr.Obs()
	s.mux.Handle("GET /metrics", o.Handler())
	phase := o.SummaryVec("isasgd_predict_phase_seconds",
		"Predict request latency breakdown by handler phase.", 1e-9, "phase")
	s.phaseDecode = phase.With("decode")
	s.phaseResolve = phase.With("resolve")
	s.phaseScore = phase.With("score")
	s.phaseEncode = phase.With("encode")

	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A read-only replica serves reads (predict included — a read
		// despite its POST method) and refuses every mutation in one
		// place, before routing.
		if s.readOnly && mutating(r) {
			writeError(w, http.StatusForbidden,
				"read-only replica: %s %s is disabled here, talk to the origin", r.Method, r.URL.Path)
			return
		}
		// The streaming-upload endpoint exists precisely for payloads too
		// large to buffer, and its body is consumed in O(blockSize)
		// memory, so the request-size cap does not apply there.
		if r.URL.Path != "/v1/jobs/stream" {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		s.mux.ServeHTTP(w, r)
	})
	s.handler = obs.Middleware(mgr.Logger(), obs.NewHTTPMetrics(o), inner)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// mutating reports whether the request would change server state —
// what a read-only replica refuses. Predict is the one POST that reads.
func mutating(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet, http.MethodHead, http.MethodOptions:
		return false
	}
	return !strings.HasSuffix(r.URL.Path, "/predict")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeJSON(w, r, &spec) {
		return
	}
	j, err := s.mgr.SubmitCtx(r.Context(), spec)
	switch {
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusAccepted, j.Status())
	}
}

// submitStreamJob trains online over the request body while it uploads:
// the LibSVM payload is never buffered whole. Two encodings are
// accepted: multipart/form-data with a "spec" part (JSON JobSpec)
// followed by a "data" part, or a raw LibSVM body with the JSON spec in
// the "spec" query parameter. The response is the job's terminal status.
func (s *Server) submitStreamJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	data := io.Reader(nil)

	if mr, err := r.MultipartReader(); err == nil {
		specSeen := false
		for {
			part, err := mr.NextPart()
			if err == io.EOF {
				break
			}
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad multipart body: %v", err)
				return
			}
			switch part.FormName() {
			case "spec":
				// The endpoint as a whole is exempt from the request-size
				// cap (the data part streams in O(blockSize)), so the spec
				// part — which json.Decode buffers — needs its own bound.
				const maxSpecBytes = 1 << 20
				if err := json.NewDecoder(io.LimitReader(part, maxSpecBytes)).Decode(&spec); err != nil {
					writeError(w, http.StatusBadRequest, "bad spec part: %v", err)
					return
				}
				specSeen = true
			case "data":
				if !specSeen {
					writeError(w, http.StatusBadRequest, "spec part must precede data part")
					return
				}
				data = part
			default:
				writeError(w, http.StatusBadRequest, "unknown part %q (want spec, data)", part.FormName())
				return
			}
			if data != nil {
				break // stream the data part; anything after it is ignored
			}
		}
		if data == nil {
			writeError(w, http.StatusBadRequest, "multipart body needs a data part")
			return
		}
	} else {
		if sp := r.URL.Query().Get("spec"); sp != "" {
			if err := json.Unmarshal([]byte(sp), &spec); err != nil {
				writeError(w, http.StatusBadRequest, "bad spec query parameter: %v", err)
				return
			}
		}
		data = r.Body
	}

	j, err := s.mgr.SubmitStream(r.Context(), spec, data)
	switch {
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		st := j.Status()
		code := http.StatusOK
		if st.State == StateFailed {
			code = http.StatusUnprocessableEntity
		}
		writeJSON(w, code, st)
	}
}

func (s *Server) listJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Jobs())
}

func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", r.PathValue("id"))
	}
	return j, ok
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobOr404(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) getCurve(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobOr404(w, r); ok {
		writeJSON(w, http.StatusOK, j.CurveResponse())
	}
}

func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	if j.Status().State.Terminal() {
		writeJSON(w, http.StatusOK, j.Status())
		return
	}
	_ = s.mgr.Cancel(j.ID)
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) listModels(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Registry().List())
}

func (s *Server) deleteModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.mgr.Registry().Delete(name) {
		writeError(w, http.StatusNotFound, "model %q not found", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// predict scores a batch and stamps the handler's latency breakdown
// into isasgd_predict_phase_seconds: decode (JSON parse), resolve (the
// model-map and snapshot-version loads the batch is answered from),
// score (validation + the dot products), encode (JSON render). The
// scoring core (Registry.Predict) itself stays allocation-free; the
// phase timers are handler-side and cost four clock reads.
func (s *Server) predict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Admission control first, before any decode work is spent: a shed
	// request costs the server almost nothing, which is the point —
	// saturation degrades to fast 429s with a Retry-After hint instead
	// of every request crawling through an unbounded queue. Unknown
	// names bypass the gate (they 404 below without holding a slot, and
	// name-scanning traffic cannot grow the per-model gate map).
	if s.admit != nil {
		if _, known := s.mgr.Registry().Get(name); known {
			g, ok := s.admit.Admit(r.Context(), name)
			if !ok {
				w.Header().Set("Retry-After", s.retryAfter)
				writeError(w, http.StatusTooManyRequests,
					"model %q admission queue is full, retry after %ss", name, s.retryAfter)
				return
			}
			defer g.Release()
		}
	}
	var req PredictRequest
	t0 := time.Now()
	if !decodeJSON(w, r, &req) {
		return
	}
	t1 := time.Now()
	s.phaseDecode.ObserveDuration(t1.Sub(t0))
	batch := req.Instances
	if batch == nil {
		if len(req.Indices) == 0 && len(req.Values) == 0 {
			writeError(w, http.StatusBadRequest, "provide instances or indices/values")
			return
		}
		batch = []Instance{{Indices: req.Indices, Values: req.Values}}
	}
	// Resolve phase: the same two atomic loads Predict performs — timed
	// here so the breakdown separates snapshot resolution from scoring.
	if m, ok := s.mgr.Registry().Get(name); ok {
		_ = m.Version()
	}
	t2 := time.Now()
	s.phaseResolve.ObserveDuration(t2.Sub(t1))
	var resp *PredictResponse
	var err error
	if s.batcher != nil {
		resp, err = s.batcher.Predict(name, batch)
	} else {
		resp, err = s.mgr.Registry().Predict(name, batch)
	}
	t3 := time.Now()
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		s.phaseScore.ObserveDuration(t3.Sub(t2))
		s.mgr.Registry().ObserveLatency(name, t3.Sub(t1))
		writeJSON(w, http.StatusOK, resp)
		resp.Release()
		s.phaseEncode.ObserveDuration(time.Since(t3))
	}
}

func (s *Server) exportModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m, ok := s.mgr.Registry().Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "model %q not found", name)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", name+checkpoint.Ext))
	if err := checkpoint.Save(w, m.Checkpoint()); err != nil {
		// Headers are gone; all we can do is drop the connection.
		panic(http.ErrAbortHandler)
	}
}

func (s *Server) importModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validName(name) {
		writeError(w, http.StatusBadRequest, "invalid model name %q", name)
		return
	}
	st, err := checkpoint.Load(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad checkpoint: %v", err)
		return
	}
	io.Copy(io.Discard, r.Body) //nolint:errcheck // drain for keep-alive
	m := ModelFromCheckpoint(name, st)
	if err := s.mgr.Registry().Publish(m); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if path := s.mgr.CheckpointPath(name); path != "" {
		if err := checkpoint.SaveFile(path, st); err != nil {
			writeError(w, http.StatusInternalServerError, "model published but persistence failed: %v", err)
			return
		}
	}
	v := m.Version()
	writeJSON(w, http.StatusOK, ModelInfo{
		Name: name, Algo: m.Algo, Objective: m.Objective, Dataset: m.Dataset,
		Dim: v.Dim(), Epoch: v.Epoch, Iters: v.Iters, Seq: v.Seq,
		DType: m.Store.DType(), Published: m.Published,
	})
}

// replicate answers one replication long-poll (GET /v1/replicate
// ?model=name&since=seq): it blocks on the model's snapshot store until
// a version newer than the caller's cursor exists — the same Store.Wait
// primitive behind the cluster pull endpoint — or the server's poll
// window expires, in which case the current version is described
// without weights so the caller knows it is current and re-polls.
// Replicas (serve.Replicator, cmd/isasgd-serve -origin) drive this in a
// loop; it works equally against a replica, so replicas can chain.
func (s *Server) replicate(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("model")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing model query parameter")
		return
	}
	var since uint64
	if q := r.URL.Query().Get("since"); q != "" {
		var err error
		if since, err = strconv.ParseUint(q, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, "bad since %q: %v", q, err)
			return
		}
	}
	m, ok := s.mgr.Registry().Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "model %q not found", name)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.replWindow)
	defer cancel()
	v := m.Store.Wait(ctx, since)
	if v == nil {
		// Window expired (or the client left): describe the current
		// version, weights omitted — the registry guarantees at least one.
		v = m.Store.Load()
	}
	resp := replicateResponseFor(m, v, since)
	writeReplicate(w, &resp)
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	st := s.mgr.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"uptime_sec":   time.Since(s.start).Seconds(),
		"jobs_running": st.Running,
		"jobs_queued":  st.Queued,
		"models":       len(s.mgr.Registry().List()),
	})
}
