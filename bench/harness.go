package main

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/isasgd/isasgd/internal/xrand"
)

// config is one workload run as the command line asked for it.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // how long the timed section measures
	trace    bool    // the traced pass: spans, baselines and layer replays
	quick    bool    // tiny inputs for the smoke test; targets and refusals off
	nproc    int     // min(cores, 4): threads, workers and connections
	corrupt  bool    // test hook: expect one wrong predict score, which must fail the run
}

// env stamps every output, so two reports can be told apart by host
// before they are compared by number.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func captureEnv(seed uint64) env {
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown", Seed: seed,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// metricValue is one reported metric. Value is the median of N samples
// (or a count or ratio derived from medians, with N the samples behind
// it); Base states what a ratio divides by.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Base  string  `json:"base,omitempty"`
}

// result is everything one workload run reports.
type result struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Quick     bool                   `json:"quick,omitempty"`
	Seconds   float64                `json:"seconds"`
	Env       env                    `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	ClockS    float64                `json:"clock_s"` // timed sections, summed
	Metrics   map[string]metricValue `json:"metrics"`
	// Shares is each layer's part of the timed clock (traced pass only).
	Shares map[string]float64 `json:"layer_shares,omitempty"`
	Notes  []string           `json:"notes,omitempty"`

	spans []span
}

// run collects samples and verdicts while a workload executes.
type run struct {
	cfg     config
	tr      *tracer // nil when the run (or the current rep) is untraced
	samples map[string][]float64
	values  map[string]metricValue
	res     result
	violate []string // correctness failures that are not one operation's
}

func newRun(cfg config) *run {
	return &run{
		cfg:     cfg,
		samples: make(map[string][]float64),
		values:  make(map[string]metricValue),
		res: result{
			Workload: cfg.workload, Trace: cfg.trace, Quick: cfg.quick,
			Seconds: cfg.seconds, Env: captureEnv(cfg.seed),
		},
	}
}

// add appends one sample of a metric; the report takes their median.
func (r *run) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// set reports a value that is not a median of samples: a count, or a
// ratio of two medians with its base stated.
func (r *run) set(name string, v float64, n int, base string) {
	r.values[name] = metricValue{Value: v, N: n, Q1: v, Q3: v, Base: base}
}

func (r *run) med(name string) float64 {
	if s := r.samples[name]; len(s) > 0 {
		return median(s)
	}
	return r.values[name].Value
}

// op counts one operation of the kind the contract reports: a training
// rep, a cluster push, a predict request.
func (r *run) op(ok bool, format string, args ...any) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		r.reason(format, args...)
	}
}

func (r *run) ops(attempted, failed int, what string) {
	r.res.Attempted += attempted
	r.res.Failed += failed
	if failed > 0 {
		r.reason("%d of %d %s failed", failed, attempted, what)
	}
}

// violation records a failed invariant that is not a single operation
// (a replica that did not converge, a sequence that went backwards).
func (r *run) violation(format string, args ...any) {
	r.violate = append(r.violate, fmt.Sprintf(format, args...))
	r.reason(format, args...)
}

func (r *run) reason(format string, args ...any) {
	if len(r.res.Failures) < 20 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) note(format string, args ...any) {
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(format, args...))
}

// finish turns samples into the reported metrics: every metric of the
// pass (end-to-end untraced, per-layer traced) appears once, a layer the
// workload does not run reads 0.
func (r *run) finish() *result {
	r.res.Metrics = make(map[string]metricValue)
	for _, d := range metricsOf(r.cfg.trace) {
		mv := r.values[d.Name]
		if s := r.samples[d.Name]; len(s) > 0 {
			sum := summarize(s)
			mv = metricValue{Value: sum.Median, N: sum.N, Q1: sum.Q1, Q3: sum.Q3}
		}
		mv.Unit = d.Unit
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			r.violation("metric %s is not finite", d.Name)
			mv.Value, mv.Q1, mv.Q3 = 0, 0, 0
		}
		r.res.Metrics[d.Name] = mv
	}
	r.res.Correct = r.res.Failed == 0 && len(r.violate) == 0
	if r.res.Attempted == 0 {
		r.res.Attempted, r.res.Failed, r.res.Correct = 1, 1, false
		r.reason("no operation ran")
	}
	r.res.spans = r.tr.snapshot()
	return &r.res
}

// stopwatch is the training clock: it runs only between start and pause,
// so evaluation, set-up of a rep and bookkeeping are not on it.
type stopwatch struct {
	total   time.Duration
	started time.Time
}

func (s *stopwatch) start() { s.started = time.Now() }
func (s *stopwatch) pause() { s.total += time.Since(s.started) }
func (s *stopwatch) seconds() float64 {
	return s.total.Seconds()
}

// setups is how often set-up is repeated; the fastest is setup_s, for the
// reason timeline gives: a neighbour's interference only ever adds time.
const setups = 3

// setUp builds the workload's fixture several times, drops all but the
// last, and reports the fastest build as setup_s.
func setUp[T any](r *run, build func() (T, error), drop func(T)) (T, error) {
	n := setups
	if r.cfg.quick {
		n = 1
	}
	var fx T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(fx)
		}
		t0 := time.Now()
		var err error
		if fx, err = build(); err != nil {
			return fx, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	sort.Float64s(times)
	r.set("setup_s", times[0], n, fmt.Sprintf("fastest of %d set-ups (median %.3f s)", n, median(times)))
	return fx, nil
}

// deadline measures for cfg.seconds: reps start until it has passed, and
// at least minReps run however slow the host.
type deadline struct {
	end     time.Time
	minReps int
	done    int
}

func newDeadline(seconds float64, minReps int) *deadline {
	return &deadline{end: time.Now().Add(time.Duration(seconds * float64(time.Second))), minReps: minReps}
}

func (d *deadline) next() bool {
	if d.done >= d.minReps && !time.Now().Before(d.end) {
		return false
	}
	d.done++
	return true
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// memProbe measures allocation and GC pause over an interval. Reading
// the statistics stops the world, so it is used off the clock only.
type memProbe struct{ before runtime.MemStats }

func startMemProbe() *memProbe {
	p := &memProbe{}
	runtime.ReadMemStats(&p.before)
	return p
}

func (p *memProbe) delta() (allocBytes, gcPauseNs float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return float64(now.TotalAlloc - p.before.TotalAlloc), float64(now.PauseTotalNs - p.before.PauseTotalNs)
}

// report files the interval as the traced pass's runtime metrics.
func (p *memProbe) report(r *run) {
	alloc, pause := p.delta()
	r.set("runtime.alloc_mb", alloc/(1<<20), 1, "")
	r.set("runtime.gc_pause_ms", pause/1e6, 1, "")
}

// traceOverhead reports what tracing cost: the median clock of the reps
// that ran traced over the median of those that did not, less one.
func (r *run) traceOverhead(traced, plain []float64, base string) {
	if len(traced) > 0 && len(plain) > 0 {
		r.set("trace.overhead_share", median(traced)/median(plain)-1, len(traced)+len(plain), base)
	}
}

// since is seconds elapsed.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// repSeed derives the seed of rep k from the run's seed: the output of
// xrand's SplitMix64 k steps on.
func repSeed(seed uint64, k int) uint64 {
	return xrand.NewSplitMix64(seed + uint64(k)*0x9e3779b97f4a7c15).Uint64()
}

func quietLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
