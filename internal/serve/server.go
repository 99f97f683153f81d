package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/isasgd/isasgd/internal/checkpoint"
	"github.com/isasgd/isasgd/internal/frame"
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
// posture, replication long-poll window).
func NewServerOpts(mgr *Manager, opts ServerOptions) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux(), start: time.Now()}
	s.readOnly = opts.ReadOnly
	s.replWindow = opts.ReplicateWindow
	if s.replWindow <= 0 {
		s.replWindow = 25 * time.Second
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

// decodeJSON decodes body as exactly one JSON value into v, rejecting
// unknown fields and anything but whitespace after the value; on failure
// it answers 400.
func decodeJSON(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, "bad request body: data after the JSON value")
		return false
	}
	return true
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeJSON(w, r.Body, &spec) {
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
// into isasgd_predict_phase_seconds: decode (body read and parse, see
// decodePredict), resolve (the model-map and snapshot-version loads the
// batch is answered from), score (validation + the dot products),
// encode (appendPredictResponse and the write). It runs Registry.Predict's
// two phases itself, so each is timed around the one call that does it.
// The scoring core stays allocation-free; the phase timers are
// handler-side and cost four clock reads.
func (s *Server) predict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// The scratch backs req's slices and the rendered answer; Predict is
	// done with both before it returns.
	sc := getPredictScratch()
	defer putPredictScratch(sc)
	var req PredictRequest
	t0 := time.Now()
	if !decodePredict(w, r.Body, sc, &req) {
		return
	}
	t1 := time.Now()
	s.phaseDecode.ObserveDuration(t1.Sub(t0))
	batch, ok := sc.batch(&req)
	if !ok {
		writeError(w, http.StatusBadRequest, "provide instances or indices/values")
		return
	}
	m, v, err := s.mgr.Registry().resolve(name)
	t2 := time.Now()
	s.phaseResolve.ObserveDuration(t2.Sub(t1))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	resp, err := m.score(v, batch)
	t3 := time.Now()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.phaseScore.ObserveDuration(t3.Sub(t2))
	m.lat.ObserveDuration(t3.Sub(t1))
	sc.out = appendPredictResponse(sc.out[:0], resp)
	resp.Release()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sc.out) //nolint:errcheck // the client is gone; nothing to answer
	s.phaseEncode.ObserveDuration(time.Since(t3))
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

// replicate serves one model's version feed (GET /v1/replicate
// ?model=name&since=seq, frame.Serve): the answer describes the model's
// newest version, with its weights when the caller's cursor is behind.
// Replicas (serve.Replicator, cmd/isasgd-serve -origin) drive it in a
// loop; it works equally against a replica, so replicas can chain.
func (s *Server) replicate(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("model")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing model query parameter")
		return
	}
	m, ok := s.mgr.Registry().Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "model %q not found", name)
		return
	}
	frame.Serve(w, r, m.Store, s.replWindow, nil, func() frame.Header {
		return frame.Header{Live: m.Live(), Algo: m.Algo, Objective: m.Objective,
			Dataset: m.Dataset, DType: m.Store.DType()}
	})
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
