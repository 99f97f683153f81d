// Package spec is the one training spec behind every surface that
// starts a training run: the JSON job specs of internal/serve
// (serve.JobSpec is an alias of Spec), the flags of cmd/isasgd-train and
// the flags of cmd/isasgd-cluster. Each knob is declared once, in the
// knobs table below, with its JSON name (the flag name is the same with
// '_' → '-'), its usage text, the run kinds it applies to and its
// default on each surface that has it. Spec.Defaults, Spec.Flags and
// Spec.Validate all read that table; Validate is the only validator of
// a spec. The capability table in caps.go is the only source of "not
// supported" and "does not apply" errors, and the library constructors
// (core.Train, stream.NewTrainer) consult it too.
//
// Compiling a validated spec into an engine config is the library's
// job: core.FromSpec, stream.FromSpec and cluster.WorkerFromSpec /
// cluster.CoordinatorFromSpec. None of them validates anything.
package spec

import (
	"flag"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
)

// Run kinds. A serve job spec leaves Kind "" for a batch job.
const (
	KindBatch   = "batch"   // core.Train over a resident dataset
	KindStream  = "stream"  // stream.Trainer over a chunked LibSVM source
	KindCluster = "cluster" // a parameter-server star node
)

// Surface is a front end that fills a Spec.
type Surface int

// The surfaces.
const (
	Serve   Surface = iota // JSON job specs (POST /v1/jobs, /v1/jobs/stream)
	Train                  // cmd/isasgd-train flags
	Cluster                // cmd/isasgd-cluster flags
	numSurfaces
)

// Spec is a training run's configuration. A zero knob takes its
// surface default (Defaults); the JSON names are the knob names.
//
// Batch jobs (Kind "" or "batch") read a synthetic preset (Dataset:
// small, news20s, urls, kddas, kddbs, or the short spellings news20,
// url, kdda, kddb) or inline LibSVM (Data). Streaming jobs (Kind
// "stream") read Path or an upload body and need Dim: a streaming model
// cannot grow. Algo selects the sampler: sgd/asgd draw uniformly,
// is-sgd/is-asgd (the default) importance-sample.
type Spec struct {
	// Model is the registry name a serve job publishes under; defaults
	// to the job id.
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
	// streaming sampler's row weighting: "" or "bound" for the static
	// Lipschitz upper bound, "grad" for the gradient norms |ℓ'(z)|·‖x‖
	// the updates record (importance-sampling algos only). DCLambda
	// enables DC-ASGD delay compensation (batch and cluster runs). AdaptC
	// and StalenessBound are a cluster coordinator's: it attenuates each
	// admitted push by 1/(1+c·τ) and sheds pushes with τ over the bound
	// (−1 admits everything).
	Importance     string  `json:"importance,omitempty"`
	AdaptC         float64 `json:"adapt_c,omitempty"`
	StalenessBound int64   `json:"staleness_bound,omitempty"`
	DCLambda       float64 `json:"dc_lambda,omitempty"`

	Algo      string  `json:"algo,omitempty"`      // default is-asgd
	Objective string  `json:"objective,omitempty"` // logistic-l1|sqhinge-l2|lsq-l2
	Precision string  `json:"precision,omitempty"` // f64 (default) | f32; f32 trains half-width weights/features
	Eta       float64 `json:"eta,omitempty"`       // regularization; default 1e-4
	Epochs    int     `json:"epochs,omitempty"`    // default 10
	Step      float64 `json:"step,omitempty"`      // default 0.5
	StepDecay float64 `json:"step_decay,omitempty"`
	Threads   int     `json:"threads,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	EvalEvery int     `json:"eval_every,omitempty"` // curve granularity; default 1
}

// knob is one row of the knob table.
type knob struct {
	name  string   // JSON name of a Spec field; the flag name replaces '_' with '-'
	kinds []string // run kinds the knob applies to
	// def holds the default on each surface (Serve, Train, Cluster); nil
	// means the surface has no such flag (a serve spec may still carry
	// the knob wherever kinds allows).
	def   [numSurfaces]any
	usage string
}

var (
	batchOnly   = []string{KindBatch}
	streamOnly  = []string{KindStream}
	local       = []string{KindBatch, KindStream}
	allKinds    = []string{KindBatch, KindStream, KindCluster}
	batchOrStar = []string{KindBatch, KindCluster}
	clusterOnly = []string{KindCluster}
)

// knobs is the knob table. A surface default of 0 or "" leaves the
// library default in force (for serve jobs that keeps the compiled
// config exactly what the library receives).
var knobs = []knob{
	{"dataset", batchOrStar, [numSurfaces]any{"", nil, "small"}, "synthetic corpus preset: small | news20s | urls | kddas | kddbs"},
	{"scale", batchOrStar, [numSurfaces]any{1.0, nil, 1.0}, "preset size multiplier in (0,1]"},
	{"data", batchOnly, [numSurfaces]any{""}, "inline LibSVM payload"},
	{"min_dim", batchOnly, [numSurfaces]any{0}, "minimum model dim for inline data"},
	{"path", streamOnly, [numSurfaces]any{""}, "server-side LibSVM file of a streaming job"},
	{"dim", streamOnly, [numSurfaces]any{0, 0}, "fixed model dimensionality (streaming; required)"},
	{"block_size", streamOnly, [numSurfaces]any{0, 0}, "rows per streamed chunk (0: 1024)"},
	{"window_blocks", streamOnly, [numSurfaces]any{0, 0}, "resident blocks in the sliding window (0: 4)"},
	{"updates_per_block", streamOnly, [numSurfaces]any{0, 0}, "update budget per chunk (0: the block's rows)"},
	{"reservoir", streamOnly, [numSurfaces]any{0, 0}, "per-worker reservoir capacity (0: 16384)"},
	{"rebuild_every", streamOnly, [numSurfaces]any{0, 0}, "alias rebuild cadence in observations (0: once per block)"},
	{"importance", streamOnly, [numSurfaces]any{"", ""}, "streaming row weighting: bound (default) | grad"},
	{"adapt_c", clusterOnly, [numSurfaces]any{nil, nil, 0.0}, "attenuate each admitted push by 1/(1+c*tau) (0 disables)"},
	{"staleness_bound", clusterOnly, [numSurfaces]any{nil, nil, int64(64)}, "shed pushes with measured staleness > n (-1 admits everything)"},
	{"dc_lambda", batchOrStar, [numSurfaces]any{0.0, 0.0, 0.0}, "DC-ASGD delay compensation strength (batch and cluster; 0 disables)"},
	{"algo", local, [numSurfaces]any{"is-asgd", "is-asgd"}, "training algorithm: sgd | is-sgd | asgd | is-asgd | svrg-sgd | svrg-asgd"},
	{"objective", allKinds, [numSurfaces]any{"logistic-l1", "logistic-l1", "logistic-l1"}, "objective: logistic-l1 | sqhinge-l2 | lsq-l2"},
	{"precision", local, [numSurfaces]any{"", "f64"}, "training precision: f64 | f32"},
	{"eta", allKinds, [numSurfaces]any{1e-4, 1e-4, 1e-4}, "regularization strength"},
	{"epochs", batchOnly, [numSurfaces]any{10, 15}, "training epochs"},
	{"step", allKinds, [numSurfaces]any{0.5, 0.5, 0.5}, "step size λ"},
	{"step_decay", allKinds, [numSurfaces]any{0.0, 1.0, 1.0}, "step multiplier per epoch, block or push round, in (0, 1]"},
	{"threads", allKinds, [numSurfaces]any{0, runtime.GOMAXPROCS(0), 1}, "concurrent workers of the async algorithms"},
	{"seed", allKinds, [numSurfaces]any{uint64(0), uint64(1), uint64(1)},
		"RNG seed (a cluster's corpus and shard plan: must agree on every node)"},
	{"eval_every", batchOrStar, [numSurfaces]any{0, nil, 4}, "evaluate every n epochs (a coordinator: every n applied pushes)"},
}

// fieldIndex maps each JSON name to its Spec field.
var fieldIndex = func() map[string]int {
	m := map[string]int{}
	t := reflect.TypeOf(Spec{})
	for i := 0; i < t.NumField(); i++ {
		m[strings.TrimSuffix(t.Field(i).Tag.Get("json"), ",omitempty")] = i
	}
	return m
}()

// value is the knob's field in s.
func (k knob) value(s *Spec) reflect.Value {
	return reflect.ValueOf(s).Elem().Field(fieldIndex[k.name])
}

// flagName is the knob's flag name.
func (k knob) flagName() string { return strings.ReplaceAll(k.name, "_", "-") }

// applies reports whether the knob belongs to runs of the given kind.
func (k knob) applies(kind string) bool { return slices.Contains(k.kinds, kind) }

// kind is the spec's run kind, "" read as batch.
func (s Spec) kind() string {
	if s.Kind == "" {
		return KindBatch
	}
	return s.Kind
}

// Defaults fills every zero knob that applies to the spec's kind with
// the surface's default.
func (s *Spec) Defaults(surface Surface) {
	for _, k := range knobs {
		if v := k.value(s); k.applies(s.kind()) && v.IsZero() && k.def[surface] != nil {
			v.Set(reflect.ValueOf(k.def[surface]))
		}
	}
}

// Flags registers every knob the surface has on fs, writing into s and
// starting from the surface default. After fs.Parse, call SetKind.
func (s *Spec) Flags(fs *flag.FlagSet, surface Surface) {
	for _, k := range knobs {
		def := k.def[surface]
		if def == nil {
			continue
		}
		name, usage := k.flagName(), k.usage
		switch p := k.value(s).Addr().Interface().(type) {
		case *string:
			fs.StringVar(p, name, def.(string), usage)
		case *int:
			fs.IntVar(p, name, def.(int), usage)
		case *int64:
			fs.Int64Var(p, name, def.(int64), usage)
		case *uint64:
			fs.Uint64Var(p, name, def.(uint64), usage)
		case *float64:
			fs.Float64Var(p, name, def.(float64), usage)
		}
	}
}

// SetKind sets the run kind of a spec parsed from fs and zeroes the
// defaulted knobs that kind does not have. A knob given on the command
// line is kept, so Validate rejects it.
func (s *Spec) SetKind(kind string, fs *flag.FlagSet) {
	s.Kind = kind
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	for _, k := range knobs {
		if !k.applies(s.kind()) && !given[k.flagName()] {
			k.value(s).SetZero()
		}
	}
}

// Validate reports the first rule a defaulted spec breaks: an unknown
// kind or name, a number out of range, or a combination the capability
// table does not support.
func (s Spec) Validate() error {
	kind := s.kind()
	if err := checkKnobs(&s, kind); err != nil {
		return err
	}
	if _, err := objective.Parse(s.Objective, s.Eta); err != nil {
		return err
	}
	if _, err := model.ParsePrecision(s.Precision); err != nil {
		return err
	}
	switch {
	case s.Dataset != "" && s.Data != "":
		return fmt.Errorf("set either dataset or data, not both")
	case s.Dataset != "":
		if _, err := dataset.Preset(s.Dataset, s.Scale, s.Seed); err != nil {
			return err
		}
	}
	if err := adaptive.CheckStep(s.Step); err != nil {
		return err
	}
	if err := adaptive.CheckDecay(s.StepDecay); err != nil {
		return err
	}
	if s.Eta < 0 || math.IsNaN(s.Eta) || math.IsInf(s.Eta, 0) {
		return fmt.Errorf("eta must be non-negative and finite, got %g", s.Eta)
	}
	if err := adaptive.CheckNonNegative("adapt_c", s.AdaptC); err != nil {
		return err
	}
	if err := adaptive.CheckNonNegative("dc_lambda", s.DCLambda); err != nil {
		return err
	}
	if s.StalenessBound < -1 {
		return fmt.Errorf("staleness_bound must be at least -1, got %d", s.StalenessBound)
	}
	if kind == KindBatch && s.Epochs < 1 {
		return fmt.Errorf("epochs must be positive, got %d", s.Epochs)
	}
	if kind == KindStream && s.Dim < 1 {
		return fmt.Errorf("streaming runs need dim >= 1 (the model cannot grow mid-stream), got %d", s.Dim)
	}
	for _, n := range []struct {
		name string
		v    int
	}{
		{"threads", s.Threads}, {"eval_every", s.EvalEvery}, {"block_size", s.BlockSize},
		{"window_blocks", s.WindowBlocks}, {"updates_per_block", s.UpdatesPerBlock},
		{"reservoir", s.Reservoir}, {"rebuild_every", s.RebuildEvery},
	} {
		if n.v < 0 {
			return fmt.Errorf("%s must be non-negative, got %d", n.name, n.v)
		}
	}
	if kind == KindCluster {
		return nil // the star runs is-asgd at f64; algo and precision do not apply
	}
	return Check(s.Algo, kind, s.DCLambda > 0, s.Importance)
}
