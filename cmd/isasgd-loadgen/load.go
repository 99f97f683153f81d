package main

// This file is the serving-fleet load generator: a closed- or open-loop
// HTTP predict driver with zipf-skewed model popularity. Request bodies
// are pre-serialized and workers carry private RNG/zipf state, so the
// driver's own cost stays flat while it saturates the target.
//
// The two modes answer different questions. Closed-loop (N workers,
// each waiting for its response before sending the next) measures
// capacity: throughput at a fixed concurrency, latency inflated only by
// the server. Open-loop (requests launched on a fixed-rate clock,
// regardless of completions) measures behavior at an offered load —
// the mode that exposes latency collapse and the one QPS-at-SLO is
// defined against; arrivals that find every in-flight slot busy are
// counted Lost rather than silently deferred, keeping the offered rate
// honest.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/serve"
	"github.com/isasgd/isasgd/internal/xrand"
)

// LoadSpec configures one load-generation run.
type LoadSpec struct {
	// Targets are the base URLs load is spread across round-robin per
	// worker (e.g. an origin and its replicas). Required.
	Targets []string
	// Models are the model names to score against; per-request model
	// choice is zipf-distributed over this list in order (first = most
	// popular). Required.
	Models []string
	// Zipf is the popularity exponent (0 = uniform). Default 1.1 — a
	// hot-head/long-tail profile like real model fleets.
	Zipf float64
	// Mode is "closed" (Concurrency workers, send-wait-repeat) or
	// "open" (fixed-rate arrivals, Rate required). Default closed.
	Mode string
	// Concurrency is the worker count (closed) or the in-flight ceiling
	// (open). Default 8.
	Concurrency int
	// Rate is the open-loop offered load in requests/second.
	Rate float64
	// Duration is the measured window. Default 5s.
	Duration time.Duration
	// Warmup is discarded from the front of the run (connections ramp,
	// pools fill). Default 10% of Duration.
	Warmup time.Duration
	// Dim and NNZ shape the synthetic predict bodies: NNZ random
	// indices below Dim. Defaults 1<<18 and 64.
	Dim, NNZ int
	// Seed makes the request stream reproducible.
	Seed uint64
	// SLOP99 is the p99 target MetSLO is judged against; 0 skips the
	// judgment.
	SLOP99 time.Duration
	// Client overrides the HTTP client; nil builds one sized for
	// Concurrency keep-alive connections per target.
	Client *http.Client
}

func (s LoadSpec) withDefaults() LoadSpec {
	if s.Zipf == 0 {
		s.Zipf = 1.1
	}
	if s.Mode == "" {
		s.Mode = "closed"
	}
	if s.Concurrency <= 0 {
		s.Concurrency = 8
	}
	if s.Duration <= 0 {
		s.Duration = 5 * time.Second
	}
	if s.Warmup < 0 {
		s.Warmup = 0
	} else if s.Warmup == 0 {
		s.Warmup = s.Duration / 10
	}
	if s.Dim <= 0 {
		s.Dim = 1 << 18
	}
	if s.NNZ <= 0 {
		s.NNZ = 64
	}
	if s.Client == nil {
		s.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        s.Concurrency * 2,
			MaxIdleConnsPerHost: s.Concurrency * 2,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return s
}

// LoadReport is one load run's measurements. Latency quantiles cover
// accepted (2xx) requests after warmup — shed requests are reported by
// rate, not folded into the latency profile they exist to protect.
type LoadReport struct {
	Mode            string   `json:"mode"`
	Targets         []string `json:"targets"`
	Concurrency     int      `json:"concurrency"`
	OfferedQPS      float64  `json:"offered_qps,omitempty"` // open mode only
	DurationSeconds float64  `json:"duration_seconds"`

	Sent   int64 `json:"sent"`
	OK     int64 `json:"ok"`
	Shed   int64 `json:"shed"`   // 429 responses
	Errors int64 `json:"errors"` // transport failures + unexpected statuses
	Lost   int64 `json:"lost"`   // open mode: arrivals dropped, all in-flight slots busy

	QPS      float64 `json:"qps"` // accepted (2xx) completions per second
	ShedRate float64 `json:"shed_rate"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`

	SLOP99Ms float64 `json:"slo_p99_ms,omitempty"`
	MetSLO   bool    `json:"met_slo"`

	MaxReplicaLagSeconds float64 `json:"max_replica_lag_seconds"`
}

// RunLoad drives the configured load until Duration (or ctx) ends and
// reports what came back. Transport errors do not abort the run — under
// deliberate overload some failures are the measurement.
func RunLoad(ctx context.Context, spec LoadSpec) (*LoadReport, error) {
	spec = spec.withDefaults()
	if len(spec.Targets) == 0 {
		return nil, fmt.Errorf("loadgen: no targets")
	}
	if len(spec.Models) == 0 {
		return nil, fmt.Errorf("loadgen: no models")
	}
	if spec.Mode != "closed" && spec.Mode != "open" {
		return nil, fmt.Errorf("loadgen: mode %q (want closed|open)", spec.Mode)
	}
	if spec.Mode == "open" && spec.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: open mode needs -rate > 0")
	}

	bodies := makeBodies(spec.Seed, spec.Dim, spec.NNZ)
	var (
		sent, ok, shed, errs, lost atomic.Int64
		hist                       = metrics.NewHistogram()
		start                      = time.Now()
		warmupOver                 = start.Add(spec.Warmup)
	)
	rctx, cancel := context.WithDeadline(ctx, start.Add(spec.Duration))
	defer cancel()

	// one issues a single predict and files the outcome. t0 is the
	// request's intended start — its arrival instant in open mode, which
	// charges client-side queue wait to the latency measurement
	// (avoiding coordinated omission) instead of hiding it.
	one := func(w *loadWorker, t0 time.Time) {
		model := spec.Models[w.zipf.Sample(w.rng)]
		target := spec.Targets[w.next%len(spec.Targets)]
		w.next++
		body := w.bodies[w.rng.Intn(len(w.bodies))]
		status, err := postPredict(rctx, spec.Client, target, model, body)
		sent.Add(1)
		switch {
		case err != nil:
			if rctx.Err() != nil {
				return // run over; an aborted request is not an error
			}
			errs.Add(1)
		case status == http.StatusOK:
			ok.Add(1)
			if t0.After(warmupOver) {
				hist.Observe(time.Since(t0))
			}
		case status == http.StatusTooManyRequests:
			shed.Add(1)
		default:
			errs.Add(1)
		}
	}

	var wg sync.WaitGroup
	switch spec.Mode {
	case "closed":
		for i := 0; i < spec.Concurrency; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				w := newLoadWorker(spec, bodies, i)
				for rctx.Err() == nil {
					one(w, time.Now())
				}
			}(i)
		}
		wg.Wait()
	case "open":
		// The pacer emits arrivals on a fixed-rate clock regardless of
		// completions. Rates above timer resolution are honored by
		// topping the emitted count up to rate·elapsed on a coarse tick
		// (a per-arrival ticker silently under-delivers past ~1 kHz).
		// Each token carries its arrival instant so queue wait lands in
		// the latency numbers; an arrival that finds the bounded client
		// queue full is Lost — the fleet could not even start it.
		jobs := make(chan time.Time, 4*spec.Concurrency)
		for i := 0; i < spec.Concurrency; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				w := newLoadWorker(spec, bodies, i)
				for t0 := range jobs {
					one(w, t0)
				}
			}(i)
		}
		tick := time.NewTicker(time.Millisecond)
		var emitted int64
	pace:
		for {
			select {
			case <-rctx.Done():
				break pace
			case now := <-tick.C:
				due := int64(spec.Rate * now.Sub(start).Seconds())
				for emitted < due {
					select {
					case jobs <- now:
						emitted++
					default:
						lost.Add(due - emitted)
						emitted = due
					}
				}
			}
		}
		tick.Stop()
		close(jobs)
		wg.Wait()
	}

	elapsed := time.Since(start).Seconds()
	measured := elapsed - spec.Warmup.Seconds()
	if measured <= 0 {
		measured = elapsed
	}
	rep := &LoadReport{
		Mode: spec.Mode, Targets: spec.Targets, Concurrency: spec.Concurrency,
		DurationSeconds: elapsed,
		Sent:            sent.Load(), OK: ok.Load(), Shed: shed.Load(),
		Errors: errs.Load(), Lost: lost.Load(),
		P50Ms: ms(hist.Quantile(0.50)), P95Ms: ms(hist.Quantile(0.95)), P99Ms: ms(hist.Quantile(0.99)),
	}
	if spec.Mode == "open" {
		rep.OfferedQPS = spec.Rate
	}
	// QPS counts accepted completions over the measured (post-warmup)
	// window; the histogram count is exactly those completions.
	rep.QPS = float64(hist.Count()) / measured
	if rep.Sent > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Sent)
	}
	if spec.SLOP99 > 0 {
		rep.SLOP99Ms = ms(spec.SLOP99)
		rep.MetSLO = hist.Count() > 0 && hist.Quantile(0.99) <= spec.SLOP99
	}
	if lag, err := FetchMaxLag(ctx, spec.Client, spec.Targets); err == nil {
		rep.MaxReplicaLagSeconds = lag
	}
	return rep, nil
}

// loadWorker is one sender's private state: RNG, zipf sampler, body
// pool, and a round-robin cursor (offset by worker id so the targets
// share load even at low concurrency).
type loadWorker struct {
	rng    *xrand.Rand
	zipf   *xrand.Zipf
	bodies [][]byte
	next   int
}

func newLoadWorker(spec LoadSpec, bodies [][]byte, i int) *loadWorker {
	return &loadWorker{
		rng:    xrand.New(spec.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15),
		zipf:   xrand.NewZipf(len(spec.Models), spec.Zipf),
		bodies: bodies,
		next:   i,
	}
}

// makeBodies pre-serializes a pool of predict payloads so the hot loop
// never touches the JSON encoder.
func makeBodies(seed uint64, dim, nnz int) [][]byte {
	rng := xrand.New(seed ^ 0xb0d1e5)
	bodies := make([][]byte, 64)
	for i := range bodies {
		idx := make([]int, nnz)
		val := make([]float64, nnz)
		for k := range idx {
			idx[k] = rng.Intn(dim)
			val[k] = rng.NormFloat64()
		}
		b, err := json.Marshal(serve.PredictRequest{Indices: idx, Values: val})
		if err != nil {
			panic("loadgen: marshaling a synthetic body cannot fail: " + err.Error())
		}
		bodies[i] = b
	}
	return bodies
}

// postPredict fires one predict and returns the status code. The body is
// drained so keep-alive connections recycle.
func postPredict(ctx context.Context, c *http.Client, target, model string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		target+"/v1/models/"+model+"/predict", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode, nil
}

// FetchMaxLag polls every target's /v1/models and returns the largest
// replication lag any replica-mode model reports (0 when every target is
// an origin or fully caught up).
func FetchMaxLag(ctx context.Context, c *http.Client, targets []string) (float64, error) {
	if c == nil {
		c = http.DefaultClient
	}
	max := 0.0
	for _, target := range targets {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		req, err := http.NewRequestWithContext(rctx, http.MethodGet, target+"/v1/models", nil)
		if err != nil {
			cancel()
			return 0, err
		}
		resp, err := c.Do(req)
		if err != nil {
			cancel()
			return 0, err
		}
		var list []serve.ModelInfo
		err = json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&list)
		resp.Body.Close()
		cancel()
		if err != nil {
			return 0, err
		}
		for _, info := range list {
			if info.Replica && info.Lag != nil && *info.Lag > max {
				max = *info.Lag
			}
		}
	}
	return max, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// WriteLoadJSON emits one load report as indented JSON (the -json
// artifact).
func WriteLoadJSON(w io.Writer, rep *LoadReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
