package stream

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/xrand"
)

// gradWindow is a window of n rows with the given norms and recorded
// |ℓ'|, admitted as refs 0…n-1, for driving an ISState's rebuilds.
func gradWindow(norm []float64, grad []float32) *window {
	w := &window{record: true, norm: norm, grad: grad}
	w.x.Y = make([]float64, len(norm))
	w.blocks = []int{len(norm)}
	return w
}

// TestISStateLossFeedbackWeighs pins the rebuild under gradient-norm
// importance, the loss feedback the update loop records: two rows with
// the same static bound are drawn with the probabilities
// ½(1/n + w_i/Σw) that their ‖x‖·|ℓ'| imply, not 50/50, with a step
// correction of 1/(n·p).
func TestISStateLossFeedbackWeighs(t *testing.T) {
	s := NewISState(8, 0, 1)
	s.win = gradWindow([]float64{1, 1}, []float32{0.75, 0.25})
	s.Observe(0, 1.0)
	s.Observe(1, 1.0)
	s.Rebuild()
	want := 0.5 * (0.5 + 0.75)
	rng := xrand.New(7)
	const draws = 20000
	hits := 0
	for i := 0; i < draws; i++ {
		e, scale, ok := s.Sample(rng)
		if !ok {
			t.Fatal("sample failed after rebuild")
		}
		p := want
		if e.Ref == 1 {
			p = 1 - want
		} else {
			hits++
		}
		if math.Abs(scale-1/(2*p)) > 1e-12 {
			t.Fatalf("ref %d: scale %g, want 1/(n·p) = %g", e.Ref, scale, 1/(2*p))
		}
	}
	if frac := float64(hits) / draws; math.Abs(frac-want) > 0.02 {
		t.Fatalf("high-gradient row drawn %.3f of draws, want ≈ %.3f", frac, want)
	}
}

// tagObj makes each row's recorded |ℓ'| name the row: its derivative is
// tag·y whatever the score, and the corpus gives every row its own
// label, so a recorded value can be traced to the update that wrote it.
type tagObj struct{ objective.LogisticL1 }

const tag = 1e-6

func (tagObj) Deriv(_, y float64) float64 { return tag * y }

// TestISStateLossFeedbackEvicts checks that the recorded |ℓ'| move with
// their rows: after evictions have compacted the window's arena, every
// surviving row holds either -1 (never updated) or the value its own
// update wrote, tag·y of its own label. Were the array left in place
// while the rows moved, the survivors would read values other rows
// wrote.
func TestISStateLossFeedbackEvicts(t *testing.T) {
	var sb strings.Builder
	for r := 0; r < 2048; r++ {
		fmt.Fprintf(&sb, "%d %d:1 %d:0.5\n", 1+r, 1+r%61, 62+r%3)
	}
	cfg := streamConfig(64, false)
	cfg.Obj = tagObj{}
	cfg.Importance = "grad"
	cfg.WindowBlocks = 3
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(strings.NewReader(sb.String()), "tags", 128)
	compactions, checked := 0, 0
	for {
		b, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		base := tr.win.base
		tr.Ingest(b)
		if tr.win.base == base {
			continue
		}
		compactions++
		w := &tr.win
		if len(w.grad) != len(w.x.Y) || len(w.norm) != len(w.x.Y) {
			t.Fatalf("arena holds %d rows but %d gradients and %d norms", len(w.x.Y), len(w.grad), len(w.norm))
		}
		for row := w.live; row < len(w.x.Y); row++ {
			y := w.x.Y[row]
			if y != float64(1+w.base+int64(row)) {
				t.Fatalf("arena row %d holds label %g, want its ref's", row, y)
			}
			switch g := w.grad[row]; g {
			case -1:
			case float32(tag * y):
				checked++
			default:
				t.Fatalf("row of label %g recorded %g, want %g (its own update's)", y, g, float32(tag*y))
			}
		}
	}
	if compactions == 0 || checked == 0 {
		t.Fatalf("%d compactions, %d recorded rows checked: the test exercised nothing", compactions, checked)
	}
}

// TestISStateSetOnRebuildConcurrent exercises the atomic callback slot:
// installing, swapping and clearing the rebuild callback while other
// goroutines observe (triggering cadence rebuilds) and rebuild
// explicitly. Run under -race this proves SetOnRebuild is safe
// mid-flight, which the trainer relies on when instruments attach late.
func TestISStateSetOnRebuildConcurrent(t *testing.T) {
	s := NewISState(64, 16, 3)
	var calls Counter
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		fn := func(time.Duration) { calls.Inc() }
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				s.SetOnRebuild(fn)
			case 1:
				s.SetOnRebuild(func(time.Duration) { calls.Inc() })
			case 2:
				s.SetOnRebuild(nil)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s.Observe(int64(g*2000+i), float64(i%7))
				if i%128 == 0 {
					s.Rebuild()
				}
			}
		}(g)
	}
	// Samplers race the rebuilds too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := xrand.New(11)
		for i := 0; i < 5000; i++ {
			if _, scale, ok := s.Sample(rng); ok && (math.IsNaN(scale) || scale < 0) {
				t.Errorf("invalid scale %g mid-flight", scale)
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// Counter is a tiny race-safe test counter.
type Counter struct {
	mu sync.Mutex
	n  int
}

func (c *Counter) Inc() { c.mu.Lock(); c.n++; c.mu.Unlock() }

// TestISStateLossWeightsValidUnderConcurrency is the property test
// behind gradient-norm importance: whatever |ℓ'| the window holds —
// unvisited rows, zeros, NaN, +Inf, huge — and whatever interleaving of
// Observe, EvictBefore and Rebuild runs beside the samplers, every
// published generation is a valid distribution: the correction 1/(n·p)
// stays finite, non-negative and at most 2.
func TestISStateLossWeightsValidUnderConcurrency(t *testing.T) {
	const rows = 3 * 4000
	norm := make([]float64, rows)
	grad := make([]float32, rows)
	rng := xrand.New(4)
	for i := range norm {
		norm[i] = rng.Float64() * 10
		grad[i] = []float32{-1, 0, float32(math.NaN()), float32(math.Inf(1)), 3e38, float32(rng.Float64())}[i%6]
	}
	s := NewISState(128, 32, 5)
	s.win = gradWindow(norm, grad)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(100 + g))
			for i := 0; i < 4000; i++ {
				ref := int64(g*4000 + i)
				s.Observe(ref, rng.Float64()*10)
				if i%512 == 0 {
					s.EvictBefore(ref - 256)
				}
			}
		}(g)
	}
	check := func(scale float64) bool {
		return !(math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 || scale > 2+1e-9)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(200 + g))
			for i := 0; i < 20000; i++ {
				if e, scale, ok := s.Sample(rng); ok && !check(scale) {
					t.Errorf("scale %g escaped [0, 2] for ref %d", scale, e.Ref)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// One quiescent rebuild: the final generation must be a coherent
	// distribution over the surviving reservoir.
	s.Rebuild()
	rng = xrand.New(999)
	n := s.Len()
	for i := 0; i < 1000; i++ {
		_, scale, ok := s.Sample(rng)
		if !ok {
			t.Fatal("final generation unsampleable")
		}
		if !check(scale) || scale == 0 {
			t.Fatalf("final scale %g invalid", scale)
		}
		// scale = 1/(n·p) ⇒ p = 1/(n·scale) must be a probability.
		if p := 1 / (float64(n) * scale); p <= 0 || p > 1+1e-9 {
			t.Fatalf("implied probability %g outside (0, 1]", p)
		}
	}
}

// TestTrainerLossFeedbackEndToEnd runs gradient-norm importance, the
// loss feedback the update loop records, through the full streaming path
// on the skewed corpus and requires it to remain a working trainer: full
// budget applied, finite weights, and a held-out loss below the uniform
// baseline's — at f64 and at f32, the f32 run landing in the f64 run's
// band.
func TestTrainerLossFeedbackEndToEnd(t *testing.T) {
	const (
		n    = 2048
		dim  = 256
		bs   = 256
		seed = 9
	)
	const truthSeed = 77
	corpus := makeSkewedCorpus(n, dim, 0.9, seed, truthSeed)
	heldOut := makeSkewedCorpus(512, dim, 0, seed+1, truthSeed)
	obj := objective.LogisticL1{Eta: 1e-4}

	run := func(importance string, uniform bool, precision string) float64 {
		cfg := streamConfig(dim, uniform)
		cfg.Step = 1.0
		cfg.UpdatesPerBlock = 2 * bs
		cfg.Importance = importance
		cfg.Precision = precision
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run(context.Background(), NewReader(strings.NewReader(corpus), "skew", bs))
		if err != nil {
			t.Fatal(err)
		}
		if res.Updates == 0 {
			t.Fatal("no updates applied")
		}
		loss, _, _, _, err := Evaluate(strings.NewReader(heldOut), "held-out", bs, obj, res.Weights)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}

	grad := run("grad", false, "")
	grad32 := run("grad", false, "f32")
	uniform := run("", true, "")
	t.Logf("held-out loss: grad=%.6f (f32 %.6f) uniform=%.6f", grad, grad32, uniform)
	if !(grad < uniform) {
		t.Fatalf("grad importance (%.6f) should beat uniform (%.6f) on the skewed corpus", grad, uniform)
	}
	if !(grad32 < uniform) {
		t.Fatalf("f32 grad importance (%.6f) should beat uniform (%.6f) on the skewed corpus", grad32, uniform)
	}
	if math.Abs(grad32-grad) > 0.05*(1+grad) {
		t.Fatalf("f32 grad importance %.6f vs f64 %.6f — outside the 5%% band", grad32, grad)
	}
}

// TestTrainerStalenessAdaptive covers the staleness probe the trainer
// keeps once it has no policy, on both precisions: a multi-worker run
// with the histograms attached trains and records one sample per applied
// update, and a single worker — τ exactly 0 — observes only zeros.
func TestTrainerStalenessAdaptive(t *testing.T) {
	const (
		n   = 1024
		dim = 128
		bs  = 256
	)
	corpus := makeSkewedCorpus(n, dim, 0.5, 3, 4)
	for _, precision := range []string{"", "f32"} {
		for _, workers := range []int{4, 1} {
			cfg := streamConfig(dim, false)
			cfg.Precision = precision
			cfg.Workers = workers
			ti := obs.NewTrainInstruments(obs.NewRegistry(), "m")
			cfg.Instruments = ti
			tr, err := NewTrainer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tr.Run(context.Background(), NewReader(strings.NewReader(corpus), "skew", bs))
			if err != nil {
				t.Fatal(err)
			}
			var count int64
			for _, h := range ti.WorkerStaleness(workers) {
				count += h.Count()
			}
			if res.Updates == 0 || count != res.Updates {
				t.Fatalf("precision %q, %d workers: %d staleness samples over %d updates", precision, workers, count, res.Updates)
			}
			if h := ti.WorkerStaleness(1)[0]; workers == 1 && h.Quantile(1) != 0 {
				t.Fatalf("precision %q: single worker observed staleness up to %g, want all 0", precision, h.Quantile(1))
			}
		}
	}
}

// TestTrainerAdaptiveConfigValidation pins the rejection matrix for the
// importance knob.
func TestTrainerAdaptiveConfigValidation(t *testing.T) {
	base := func() Config { return streamConfig(64, false) }
	for name, mutate := range map[string]func(*Config){
		"bad importance":    func(c *Config) { c.Importance = "entropy" },
		"grad with uniform": func(c *Config) { c.Importance = "grad"; c.Uniform = true },
		"loss importance":   func(c *Config) { c.Importance = "loss" },
	} {
		cfg := base()
		mutate(&cfg)
		if _, err := NewTrainer(cfg); err == nil {
			t.Errorf("%s: config accepted, want error", name)
		}
	}
	for name, mutate := range map[string]func(*Config){
		"bound importance": func(c *Config) { c.Importance = "bound" },
		"grad importance":  func(c *Config) { c.Importance = "grad" },
		"grad with f32":    func(c *Config) { c.Importance = "grad"; c.Precision = "f32" },
	} {
		cfg := base()
		mutate(&cfg)
		if _, err := NewTrainer(cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestTrainerGradConcurrent runs gradient-norm importance with two
// workers, plain and with the staleness histograms on (the probing body
// records then): each worker's updates store |ℓ'| into the window rows
// of its own reservoir while the other trains. Under -race it proves
// the record shares nothing between workers but the model.
func TestTrainerGradConcurrent(t *testing.T) {
	corpus := makeSkewedCorpus(2048, 64, 0.5, 5, 6)
	for _, precision := range []string{"", "f32"} {
		for _, instrumented := range []bool{false, true} {
			cfg := streamConfig(64, false)
			cfg.Importance = "grad"
			cfg.Precision = precision
			if instrumented {
				cfg.Instruments = obs.NewTrainInstruments(obs.NewRegistry(), "m")
			}
			tr, err := NewTrainer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tr.Run(context.Background(), NewReader(strings.NewReader(corpus), "skew", 256))
			if err != nil {
				t.Fatal(err)
			}
			if res.Updates != 2048 {
				t.Fatalf("precision %q instrumented %v: applied %d updates, want 2048", precision, instrumented, res.Updates)
			}
		}
	}
}
