package stream

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/xrand"
)

// TestISStateLossFeedbackReweights pins the loss-feedback rebuild: a row
// whose observed loss EMA dominates must be drawn with the probability
// its partially-biased weight (1−lossBias)·ema + lossBias·bound implies,
// while an unvisited row keeps its static bound as the fallback weight.
func TestISStateLossFeedbackReweights(t *testing.T) {
	s := NewISState(8, 0, 1)
	s.EnableLossFeedback(0.5)
	if !s.LossFeedback() {
		t.Fatal("loss feedback not enabled")
	}
	// Same static bound for both rows: without loss feedback they would be
	// drawn 50/50.
	s.Observe(0, 1.0)
	s.Observe(1, 1.0)
	if !s.ObserveLoss(0, 9.0) {
		t.Fatal("loss observation for a resident row must record")
	}
	// Row 0: blended weight (1−lossBias)·9 + lossBias·1. Row 1 never
	// observed: weight falls back to its bound 1.0.
	s.Rebuild()
	w0, w1 := (1-lossBias)*9.0+lossBias*1.0, 1.0
	want := w0 / (w0 + w1)
	rng := xrand.New(7)
	const draws = 20000
	hits := 0
	for i := 0; i < draws; i++ {
		e, scale, ok := s.Sample(rng)
		if !ok {
			t.Fatal("sample failed after rebuild")
		}
		if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
			t.Fatalf("invalid importance scale %g", scale)
		}
		if e.Ref == 0 {
			hits++
		}
	}
	frac := float64(hits) / draws
	if math.Abs(frac-want) > 0.05 {
		t.Fatalf("high-loss row drawn %.3f of draws, want ≈ %.3f", frac, want)
	}
}

// TestISStateLossFeedbackEvicts ties the loss map to the reservoir
// window: refs evicted from the reservoir stop accepting observations.
func TestISStateLossFeedbackEvicts(t *testing.T) {
	s := NewISState(16, 0, 1)
	s.EnableLossFeedback(0)
	for ref := int64(0); ref < 8; ref++ {
		s.Observe(ref, 1)
	}
	s.EvictBefore(4)
	if s.ObserveLoss(2, 1.0) {
		t.Fatal("evicted ref must not record a loss")
	}
	if !s.ObserveLoss(5, 1.0) {
		t.Fatal("resident ref must record a loss")
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

// TestISStateLossWeightsValidUnderConcurrency is the property test behind
// the loss-feedback sampler: whatever interleaving of Observe,
// ObserveLoss (including garbage losses), EvictBefore and Rebuild runs,
// every published generation must remain a valid distribution — samples
// resolve to live entries and the importance correction 1/(n·p) stays
// finite and non-negative.
func TestISStateLossWeightsValidUnderConcurrency(t *testing.T) {
	s := NewISState(128, 32, 5)
	s.EnableLossFeedback(0.25)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(100 + g))
			for i := 0; i < 4000; i++ {
				ref := int64(g*4000 + i)
				s.Observe(ref, rng.Float64()*10)
				switch i % 5 {
				case 0:
					s.ObserveLoss(ref, rng.Float64()*100)
				case 1:
					s.ObserveLoss(ref, math.NaN())
				case 2:
					s.ObserveLoss(ref, math.Inf(1))
				case 3:
					s.ObserveLoss(ref, -1)
				}
				if i%512 == 0 {
					s.EvictBefore(ref - 256)
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(200 + g))
			for i := 0; i < 20000; i++ {
				e, scale, ok := s.Sample(rng)
				if !ok {
					continue
				}
				if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
					t.Errorf("scale %g escaped [0, +Inf) for ref %d", scale, e.Ref)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// One quiescent rebuild: the final generation must be a coherent
	// distribution over the surviving reservoir.
	s.Rebuild()
	rng := xrand.New(999)
	n := s.Len()
	for i := 0; i < 1000; i++ {
		_, scale, ok := s.Sample(rng)
		if !ok {
			t.Fatal("final generation unsampleable")
		}
		if scale < 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
			t.Fatalf("final scale %g invalid", scale)
		}
		if scale > 0 {
			// scale = 1/(n·p) ⇒ p = 1/(n·scale) must be a probability.
			p := 1 / (float64(n) * scale)
			if p <= 0 || p > 1+1e-9 {
				t.Fatalf("implied probability %g outside (0, 1]", p)
			}
		}
	}
}

// TestTrainerLossFeedbackEndToEnd runs the loss-feedback mode through the
// full streaming path on the skewed corpus and requires it to remain a
// working trainer: full budget applied, finite weights, and a held-out
// loss no worse than uniform baseline's — at f64 and at f32, the f32 run
// landing in the f64 run's band.
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

	lossFB := run("loss", false, "")
	lossFB32 := run("loss", false, "f32")
	uniform := run("", true, "")
	t.Logf("held-out loss: loss-feedback=%.6f (f32 %.6f) uniform=%.6f", lossFB, lossFB32, uniform)
	if !(lossFB < uniform) {
		t.Fatalf("loss-feedback (%.6f) should beat uniform (%.6f) on the skewed corpus", lossFB, uniform)
	}
	if !(lossFB32 < uniform) {
		t.Fatalf("f32 loss-feedback (%.6f) should beat uniform (%.6f) on the skewed corpus", lossFB32, uniform)
	}
	if math.Abs(lossFB32-lossFB) > 0.05*(1+lossFB) {
		t.Fatalf("f32 loss-feedback %.6f vs f64 %.6f — outside the 5%% band", lossFB32, lossFB)
	}
}

// racingObj stands in for the other workers of a single-worker run: every
// third gradient read, two foreign updates land on the trainer's clock
// before the write, so that update measures τ = 2.
type racingObj struct {
	objective.LogisticL1
	ck    *adaptive.Clock
	reads int64
}

func (o *racingObj) Deriv(z, y float64) float64 {
	if o.reads++; o.reads%3 == 0 {
		o.ck.Tick()
		o.ck.Tick()
	}
	return o.LogisticL1.Deriv(z, y)
}

// TestTrainerStalenessAdaptive covers the staleness-adaptive knobs on
// both precisions: a multi-worker run with a tight bound still trains; a
// single worker — τ exactly 0 — sheds nothing and observes only zeros;
// and with a scripted τ = 2 on every third update under a bound of 1,
// exactly those updates are shed, and the count the trainer reports is
// the one the instruments export (workers add their sheds once per
// block, not per update).
func TestTrainerStalenessAdaptive(t *testing.T) {
	const (
		n   = 1024
		dim = 128
		bs  = 256
	)
	corpus := makeSkewedCorpus(n, dim, 0.5, 3, 4)
	run := func(cfg Config) (*Trainer, *Result, *obs.TrainInstruments) {
		cfg.Instruments = obs.NewTrainInstruments(obs.NewRegistry(), "m")
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if o, ok := cfg.Obj.(*racingObj); ok {
			o.ck = &tr.ck
		}
		res, err := tr.Run(context.Background(), NewReader(strings.NewReader(corpus), "skew", bs))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cfg.Instruments.UpdatesShed.Count(), tr.Shed(); got != want {
			t.Fatalf("isasgd_train_updates_shed_total = %d, Shed() = %d", got, want)
		}
		return tr, res, cfg.Instruments
	}
	for _, precision := range []string{"", "f32"} {
		cfg := streamConfig(dim, false)
		cfg.Precision = precision
		cfg.Workers = 4
		cfg.AdaptC = 0.1
		cfg.StalenessBound = 8
		if _, res, _ := run(cfg); res.Updates == 0 {
			t.Fatalf("precision %q: adaptive run applied no updates", precision)
		}

		cfg.Workers = 1
		cfg.AdaptC = 0.5
		cfg.StalenessBound = 1
		tr, res, ti := run(cfg)
		if got := tr.Shed(); got != 0 {
			t.Fatalf("precision %q: single-worker run shed %d updates, want 0", precision, got)
		}
		if h := ti.WorkerStaleness(1)[0]; h.Count() != res.Updates || h.Quantile(1) != 0 {
			t.Fatalf("precision %q: single worker observed %d staleness samples (max %g) over %d updates, want all 0",
				precision, h.Count(), h.Quantile(1), res.Updates)
		}

		racing := &racingObj{LogisticL1: objective.LogisticL1{Eta: 1e-4}}
		cfg.Obj = racing
		tr, res, _ = run(cfg)
		if got, want := tr.Shed(), racing.reads/3; got != want || want == 0 {
			t.Fatalf("precision %q: shed %d of %d gradient reads, want every third (%d)", precision, got, racing.reads, want)
		}
		if res.Updates+tr.Shed() != racing.reads {
			t.Fatalf("precision %q: applied %d + shed %d != %d gradient reads", precision, res.Updates, tr.Shed(), racing.reads)
		}
	}
}

// TestTrainerAdaptiveConfigValidation pins the rejection matrix for the
// new knobs.
func TestTrainerAdaptiveConfigValidation(t *testing.T) {
	base := func() Config { return streamConfig(64, false) }
	for name, mutate := range map[string]func(*Config){
		"bad importance":    func(c *Config) { c.Importance = "entropy" },
		"loss with uniform": func(c *Config) { c.Importance = "loss"; c.Uniform = true },
		"negative adaptC":   func(c *Config) { c.AdaptC = -1 },
		"NaN adaptC":        func(c *Config) { c.AdaptC = math.NaN() },
		"negative bound":    func(c *Config) { c.StalenessBound = -5 },
	} {
		cfg := base()
		mutate(&cfg)
		if _, err := NewTrainer(cfg); err == nil {
			t.Errorf("%s: config accepted, want error", name)
		}
	}
	for name, mutate := range map[string]func(*Config){
		"bound importance": func(c *Config) { c.Importance = "bound" },
		"loss importance":  func(c *Config) { c.Importance = "loss"; c.LossBeta = 0.5 },
		"adaptive f64":     func(c *Config) { c.AdaptC = 0.25; c.StalenessBound = 16 },
		"loss with f32":    func(c *Config) { c.Importance = "loss"; c.Precision = "f32" },
		"adaptive f32":     func(c *Config) { c.AdaptC = 0.25; c.StalenessBound = 16; c.Precision = "f32" },
	} {
		cfg := base()
		mutate(&cfg)
		if _, err := NewTrainer(cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
