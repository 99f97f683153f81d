// Package core implements the paper's contribution: the IS-ASGD training
// engine of Algorithm 4, together with its degenerate configurations —
// one worker with uniform sampling is plain SGD (Eq. 3), one worker with
// importance sampling is IS-SGD (Algorithm 2), many workers with uniform
// sampling is Hogwild ASGD (Recht et al. 2011), and many workers with
// importance-balanced shards and local importance sampling is IS-ASGD.
//
// The engine follows the paper's performance recipe exactly:
//
//   - sample sequences are generated offline (Algorithm 2 line 3 /
//     Algorithm 4 line 12), so the online kernel is identical to ASGD:
//     one sparse dot, one scalar loss derivative, one sparse axpy;
//   - each worker owns a contiguous shard of the (rearranged) dataset
//     and a sampling distribution computed from its local Lipschitz
//     constants (Algorithm 4 lines 9–11);
//   - the shard layout is chosen by importance balancing (Algorithm 3)
//     or random shuffling, adaptively on ρ (Algorithm 4 lines 2–6);
//   - updates go through a shared model with either CAS (race-free) or
//     plain (true Hogwild) writes, via internal/kernel's devirtualized
//     fused update kernels — the worker loops only resolve the next row
//     and step, and the arithmetic lives in exactly one place.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/kernel"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/sampling"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/xrand"
)

// Engine runs epochs of (possibly asynchronous, possibly importance-
// sampled) SGD over fixed worker shards. Construct with NewSGD, NewISSGD,
// NewASGD or NewISASGD.
type Engine struct {
	ds   *dataset.Dataset
	obj  objective.Objective
	m    model.Params
	numT int

	// The data path, bound once at construction. Exactly one kernel is
	// set: kern32 (with val32, the dataset's float32 value copy) when the
	// model stores float32 (model.Kind.Is32), kern otherwise. idx is the
	// CSR index array the kernel sees — the dataset's own, or for the
	// feature-blocked layout a one-time physical-slot remap of it — so the
	// worker loops slice rows out of IndPtr/idx/values directly and pay
	// nothing per update for the precision or the layout.
	kern   kernel.Kernel
	kern32 kernel.Kernel32
	idx    []int32
	val32  []float32

	shards   [][]int            // per worker: global row ids
	scales   [][]float64        // per worker, per local position: step multiplier 1/(N_a·p_ai); nil = all ones
	seqs     [][]int32          // per worker: pre-generated local-position sequence; nil = online uniform draws
	rngs     []*xrand.Rand      // per worker
	samplers []sampling.Sampler // per worker; retained for sequence regeneration
	scratch  []kernel.Scratch   // per worker: reusable minibatch buffers

	shuffleSeq  bool // reuse one sequence, reshuffled per epoch (paper's Sec 4.2 trick)
	partialBias bool // mix distribution with uniform (Needell et al. 2014)
	batch       int  // minibatch size; 0/1 = single-sample updates
	decision    balance.Decision

	// Mid-training publication (PublishTo): every pubEvery completed
	// epochs the engine cuts a model snapshot into pub, so live serving
	// consumers see the weights advance while training continues.
	pub        *snapshot.Store
	pubEvery   int
	epochsDone int
	itersDone  int64
	pubRejects int64

	// Update-staleness instrumentation (Instrument): per-worker τ
	// histograms. Nil (the default) keeps the plain hot loop free of
	// clock traffic.
	instr  *obs.TrainInstruments
	staleH []*obs.Histogram

	// ck is the one logical update clock: it ticks once per applied
	// update whenever something reads it — the τ histograms, the adaptive
	// probe, or both.
	ck adaptive.Clock

	// Adaptive-update state (SetAdaptive): the policy (zero = disabled),
	// the epoch-start base for delay compensation (refreshed by RunEpoch
	// when DCLambda > 0, reused across epochs, indexed like idx), and the
	// cumulative shed count.
	pol    adaptive.Policy
	dcBase []float64
	shed   atomic.Int64
}

// PublishTo configures mid-training snapshot publication: after every
// `every` completed epochs (minimum 1) RunEpoch cuts the current model
// into st as a new immutable version — the same tolerated-inconsistency
// snapshot the evaluator reads (model.Params.Snapshot need not be a
// consistent cut under Hogwild writers), now exposed to serving readers
// while the run is still in flight. Must be called before RunEpoch.
func (e *Engine) PublishTo(st *snapshot.Store, every int) {
	if every < 1 {
		every = 1
	}
	e.pub, e.pubEvery = st, every
}

// Instrument attaches training telemetry: every model update is
// bracketed by the engine's update clock, so each worker's histogram
// records the perturbed-iterate staleness τ — how many concurrent
// updates landed between this update's read and its write, the
// quantity the paper's SME analysis bounds. Single-worker runs observe
// exactly 0. Must be called before RunEpoch; nil detaches.
func (e *Engine) Instrument(ti *obs.TrainInstruments) {
	e.instr = ti
	if ti == nil {
		e.staleH = nil
		return
	}
	e.staleH = ti.WorkerStaleness(e.numT)
}

// SetAdaptive installs an adaptive-update policy: steps attenuated by
// 1/(1+c·τ) on the measured per-update staleness, updates shed over a
// staleness bound, and DC-ASGD delay compensation against an epoch-start
// base snapshot. A zero (disabled) policy detaches. Every model kind
// runs it; minibatch engines do not (see checkAdaptiveBatch). Must not
// be called while RunEpoch is in flight.
func (e *Engine) SetAdaptive(p adaptive.Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := checkAdaptiveBatch(p, e.batch); err != nil {
		return err
	}
	e.pol = p
	return nil
}

// checkAdaptiveBatch is the one rule SetAdaptive and SetBatch share, so
// either call order reaches it: the adaptive probe brackets a single
// sample's gradient read and its write, and a minibatch has no such
// pair.
func checkAdaptiveBatch(p adaptive.Policy, batch int) error {
	if p.Enabled() && batch > 1 {
		return fmt.Errorf("core: adaptive updates require single-sample steps, got batch %d", batch)
	}
	return nil
}

// Shed returns the cumulative number of updates dropped because their
// measured staleness exceeded the policy's bound. Shed draws still
// consume their epoch iteration — the budget measures work attempted,
// not applied.
func (e *Engine) Shed() int64 { return e.shed.Load() }

// Decision reports how the dataset order was prepared (Algorithm 4's
// branch plus shard Φ statistics). Meaningful for IS-ASGD; zero for the
// other constructions.
func (e *Engine) Decision() balance.Decision { return e.decision }

// Model exposes the shared model.
func (e *Engine) Model() model.Params { return e.m }

// Threads returns the worker count.
func (e *Engine) Threads() int { return e.numT }

// Snapshot copies the current model into dst.
func (e *Engine) Snapshot(dst []float64) []float64 { return e.m.Snapshot(dst) }

// ItersPerEpoch returns the number of updates one epoch performs (the
// dataset size, split across workers).
func (e *Engine) ItersPerEpoch() int64 {
	var n int64
	for _, s := range e.shards {
		n += int64(len(s))
	}
	return n
}

func newEngine(ds *dataset.Dataset, obj objective.Objective, m model.Params, threads int, seed uint64) (*Engine, error) {
	if ds.N() == 0 {
		return nil, fmt.Errorf("core: empty dataset %q", ds.Name)
	}
	if m.Dim() != ds.Dim() {
		return nil, fmt.Errorf("core: model dim %d != dataset dim %d", m.Dim(), ds.Dim())
	}
	if threads < 1 {
		return nil, fmt.Errorf("core: threads must be >= 1, got %d", threads)
	}
	if threads > ds.N() {
		threads = ds.N()
	}
	e := &Engine{
		ds: ds, obj: obj, m: m, numT: threads,
		idx:     ds.X.Idx,
		scratch: make([]kernel.Scratch, threads),
	}
	// Bind the devirtualized update kernel once: the model's concrete
	// type is fixed for the engine's lifetime, so the specialization
	// chosen here serves every epoch.
	switch mm := m.(type) {
	case *model.Racy32:
		e.kern32, e.val32 = kernel.New32(m, obj), ds.X.EnsureVal32()
		if mm.Blocked() {
			e.idx = mm.RemapInto(make([]int32, len(ds.X.Idx)), ds.X.Idx)
		}
	case *model.Atomic32:
		e.kern32, e.val32 = kernel.New32(m, obj), ds.X.EnsureVal32()
	default:
		e.kern = kernel.New(m, obj)
	}
	sm := xrand.NewSplitMix64(seed)
	e.rngs = make([]*xrand.Rand, threads)
	for t := range e.rngs {
		e.rngs[t] = xrand.New(sm.Uint64())
	}
	return e, nil
}

// NewSGD builds a sequential uniform-sampling engine (plain SGD, Eq. 3).
func NewSGD(ds *dataset.Dataset, obj objective.Objective, m model.Params, seed uint64) (*Engine, error) {
	return NewASGD(ds, obj, m, 1, seed)
}

// NewASGD builds the Hogwild baseline: the (shuffled) dataset is split
// into contiguous shards and each worker draws uniformly from its own
// shard with unit step scale.
func NewASGD(ds *dataset.Dataset, obj objective.Objective, m model.Params, threads int, seed uint64) (*Engine, error) {
	e, err := newEngine(ds, obj, m, threads, seed)
	if err != nil {
		return nil, err
	}
	order := e.rngs[0].Perm(ds.N())
	e.shards = balance.Split(order, e.Threads())
	// Uniform online draws: no sequences, no scales.
	return e, nil
}

// SetBatch configures mini-batch updates of size b (>= 1). Each step
// draws b indices i.i.d. from the worker's distribution, computes all b
// scaled gradients at the current model, and applies their average —
// the i.i.d. minibatch importance sampling of Csiba & Richtárik (2016).
// One epoch still touches len(shard) samples. b > 1 is rejected while an
// adaptive policy is installed (see checkAdaptiveBatch).
func (e *Engine) SetBatch(b int) error {
	if b < 1 {
		b = 1
	}
	if err := checkAdaptiveBatch(e.pol, b); err != nil {
		return err
	}
	e.batch = b
	return nil
}

// ISOptions configures the importance-sampling constructions.
type ISOptions struct {
	// Mode selects shard preparation (Algorithm 4 lines 2–6).
	Mode balance.Mode
	// Zeta is the ρ threshold; <= 0 selects balance.DefaultZeta.
	Zeta float64
	// Seed drives all randomness.
	Seed uint64
	// ShuffleSeq enables the paper's generate-once-reshuffle
	// approximation (see NewISASGD).
	ShuffleSeq bool
	// PartialBias mixes the importance distribution with uniform,
	// p_i = ½(1/n + L_i/ΣL) (Needell et al. 2014's partially biased
	// sampling), which bounds the step correction 1/(n·p_i) below 2 and
	// guards against variance blow-up from rarely-sampled points.
	PartialBias bool
}

// NewISSGD builds sequential importance-sampled SGD (Algorithm 2): one
// worker holding the whole dataset, alias sampling from the global
// distribution P of Eq. 12, step scaled by 1/(n·p_i) (Eq. 8).
func NewISSGD(ds *dataset.Dataset, obj objective.Objective, m model.Params, seed uint64, shuffleSeq bool) (*Engine, error) {
	return NewISASGDOpts(ds, obj, m, 1, ISOptions{Mode: balance.ForceShuffle, Seed: seed, ShuffleSeq: shuffleSeq})
}

// NewISASGD builds the paper's Algorithm 4: plan the dataset order
// (importance balancing or shuffle, adaptive on ρ unless forced), split
// into contiguous worker shards, build each worker's local distribution
// P_tid from its local Lipschitz constants, pre-generate local sample
// sequences, and scale steps by 1/(N_a·p_ai).
//
// When shuffleSeq is false (the default) each worker regenerates its
// sample sequence from its distribution every epoch, keeping the visit
// multiset unbiased across epochs. shuffleSeq = true enables the paper's
// Section-4.2 approximation — generate once, reshuffle per epoch — which
// freezes the empirical weights k_i/(N_a·p_i) of the first draw and
// therefore optimizes a persistently reweighted objective; at the
// paper's dataset sizes the distortion is negligible, but at the scaled
// sizes used here it is measurable (see the sequence ablation).
func NewISASGD(ds *dataset.Dataset, obj objective.Objective, m model.Params, threads int,
	mode balance.Mode, zeta float64, seed uint64, shuffleSeq bool) (*Engine, error) {
	return NewISASGDOpts(ds, obj, m, threads, ISOptions{
		Mode: mode, Zeta: zeta, Seed: seed, ShuffleSeq: shuffleSeq,
	})
}

// NewISASGDOpts is NewISASGD with the full option set.
func NewISASGDOpts(ds *dataset.Dataset, obj objective.Objective, m model.Params, threads int, opts ISOptions) (*Engine, error) {
	e, err := newEngine(ds, obj, m, threads, opts.Seed)
	if err != nil {
		return nil, err
	}
	e.shuffleSeq = opts.ShuffleSeq
	e.partialBias = opts.PartialBias

	l := objective.Weights(ds.X, obj)
	if e.partialBias {
		l = partialBiasWeights(l)
	}
	order, dec := balance.Plan(l, e.Threads(), opts.Mode, opts.Zeta, e.rngs[0])
	e.decision = dec
	e.shards = balance.Split(order, e.Threads())
	if err := e.buildSamplers(l); err != nil {
		return nil, err
	}
	return e, nil
}

// partialBiasWeights returns 0.5·(L̄ + L_i), which normalizes to the
// partially biased distribution ½(1/n + L_i/ΣL).
func partialBiasWeights(l []float64) []float64 {
	mean := 0.0
	for _, v := range l {
		mean += v
	}
	mean /= float64(len(l))
	out := make([]float64, len(l))
	for i, v := range l {
		out[i] = 0.5 * (mean + v)
	}
	return out
}

// buildSamplers (re)builds each worker's local distribution, step-scale
// table and sample sequence from global weights l (indexed by row id).
func (e *Engine) buildSamplers(l []float64) error {
	if e.scales == nil {
		e.scales = make([][]float64, e.Threads())
		e.seqs = make([][]int32, e.Threads())
		e.samplers = make([]sampling.Sampler, e.Threads())
	}
	for t, shard := range e.shards {
		if len(shard) == 0 {
			continue
		}
		localL := make([]float64, len(shard))
		for k, i := range shard {
			localL[k] = l[i]
		}
		al, err := sampling.NewAlias(localL)
		if err != nil {
			return fmt.Errorf("core: worker %d sampler: %w", t, err)
		}
		e.samplers[t] = al
		na := float64(len(shard))
		sc := make([]float64, len(shard))
		for k := range sc {
			p := al.Prob(k)
			if p <= 0 {
				// A zero-weight sample is never drawn; its scale is moot.
				sc[k] = 0
				continue
			}
			sc[k] = 1 / (na * p)
		}
		e.scales[t] = sc
		e.seqs[t] = sampling.Sequence(al, e.rngs[t], len(shard))
	}
	return nil
}

// Reweight rebuilds the sampling distributions, step scales and
// sequences from fresh global weights (indexed by row id), keeping the
// shard layout. It implements periodic re-estimation of the Eq.-11
// optimal distribution p_i ∝ ‖∇f_i(w_t)‖ — the scheme the paper deems
// impractical per-iteration but which is affordable at epoch
// granularity. Must not be called while RunEpoch is in flight.
func (e *Engine) Reweight(l []float64) error {
	if e.samplers == nil {
		return fmt.Errorf("core: Reweight on a uniform engine")
	}
	if len(l) != e.ds.N() {
		return fmt.Errorf("core: Reweight got %d weights for %d samples", len(l), e.ds.N())
	}
	if e.partialBias {
		l = partialBiasWeights(l)
	}
	return e.buildSamplers(l)
}

// RunEpoch performs one epoch: every worker executes len(shard) updates
// with the given step size λ, concurrently when Threads() > 1. It returns
// the number of updates applied.
func (e *Engine) RunEpoch(step float64) int64 {
	if e.pol.DCLambda > 0 {
		e.refreshDCBase()
	}
	if e.Threads() == 1 {
		e.runWorker(0, step)
		e.endOfEpoch(0)
		return e.finishEpoch()
	}
	var wg sync.WaitGroup
	for t := range e.shards {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			e.runWorker(t, step)
			e.endOfEpoch(t)
		}(t)
	}
	wg.Wait()
	return e.finishEpoch()
}

// finishEpoch advances the epoch counters and, when configured via
// PublishTo, cuts a mid-training snapshot version at the publication
// cadence. Publication is the cold path: one O(dim) copy per cadence
// hit, nothing when unconfigured (steady-state epochs stay
// allocation-free).
//
// A rejected publish (the store refuses non-finite weights) means
// serving readers silently stop advancing while this run keeps training,
// so it must not be dropped on the floor: the engine counts it, and the
// store's SetOnReject hook (installed by the owner of the store — the
// job manager feeds isasgd_snapshot_rejected_total and logs at warn)
// observes the same event.
func (e *Engine) finishEpoch() int64 {
	n := e.ItersPerEpoch()
	e.epochsDone++
	e.itersDone += n
	if e.pub != nil && e.epochsDone%e.pubEvery == 0 {
		if v := e.pub.Publish(e.epochsDone, e.itersDone, e.m.Snapshot); v == nil {
			e.pubRejects++
		}
	}
	return n
}

// SnapshotRejects reports how many mid-training publishes the engine's
// snapshot store rejected for non-finite weights.
func (e *Engine) SnapshotRejects() int64 { return e.pubRejects }

// refreshDCBase re-reads the delay-compensation base: the epoch-start
// weights are what every worker's gradient reads drift away from. The
// buffer is reused, so steady-state epochs stay allocation-free. The
// base is indexed the way the kernel indexes the model — logical order,
// except for the feature-blocked layout, whose physical storage is
// widened as it lies.
func (e *Engine) refreshDCBase() {
	mm, ok := e.m.(*model.Racy32)
	if !ok || !mm.Blocked() {
		e.dcBase = e.m.Snapshot(e.dcBase)
		return
	}
	raw := mm.Raw32()
	if cap(e.dcBase) < len(raw) {
		e.dcBase = make([]float64, len(raw))
	}
	e.dcBase = e.dcBase[:len(raw)]
	for s, v := range raw {
		e.dcBase[s] = float64(v)
	}
}

// runWorker runs worker t's share of one epoch (Algorithm 4 lines
// 13–15) on the engine's data path. It is shared by all four
// constructions; the differences are entirely in the prepared
// shard/sequence/scale tables.
func (e *Engine) runWorker(t int, step float64) {
	if e.kern32 != nil {
		runShard(e, t, step, e.kern32, e.val32)
	} else {
		runShard[float64](e, t, step, e.kern, e.ds.X.Val)
	}
}

// runShard is the worker loop, written once over the feature value
// type: k and vals are the engine's kernel and CSR value array in that
// precision. The update arithmetic itself lives in internal/kernel —
// the loops below resolve the next position, row and step scale and
// hand the fused update to the kernel.
func runShard[V float32 | float64](e *Engine, t int, step float64, k kernel.Ops[V], vals []V) {
	shard := e.shards[t]
	if len(shard) == 0 {
		return
	}
	var (
		ptr   = e.ds.X.IndPtr
		idx   = e.idx
		y     = e.ds.Y
		obj   = e.obj
		rng   = e.rngs[t]
		ck    = &e.ck
		seq   []int32
		scale []float64
		sh    *obs.Histogram
	)
	if e.seqs != nil {
		seq = e.seqs[t]
	}
	if e.scales != nil {
		scale = e.scales[t]
	}
	if e.staleH != nil {
		sh = e.staleH[t]
	}
	n := len(shard)

	if b := e.batch; b > 1 {
		// Minibatch: all b scores are computed against the same model
		// state before any update is applied, then the averaged scaled
		// gradients are written back. The draw/score buffers are
		// per-worker scratch owned by the engine, so steady-state epochs
		// allocate nothing.
		pos, grads := e.scratch[t].Grow(b)
		for it := 0; it < n; {
			bb := min(b, n-it)
			for c := 0; c < bb; c++ {
				var p int
				if seq != nil {
					p = int(seq[it+c])
				} else {
					p = rng.Intn(n)
				}
				pos[c] = p
				i := shard[p]
				lo, hi := ptr[i], ptr[i+1]
				g := obj.Deriv(k.Dot(idx[lo:hi], vals[lo:hi]), y[i])
				if scale != nil {
					g *= scale[p]
				}
				grads[c] = g
			}
			// The whole batch is one logical update against one model
			// read, so staleness brackets the write-back phase, not each
			// coordinate write.
			inv := step / float64(bb)
			var begin int64
			if sh != nil {
				begin = ck.Now()
			}
			for c := 0; c < bb; c++ {
				i := shard[pos[c]]
				lo, hi := ptr[i], ptr[i+1]
				k.Update(idx[lo:hi], vals[lo:hi], grads[c], inv)
			}
			if sh != nil {
				sh.Observe(ck.Tick() - begin - 1)
			}
			it += bb
		}
		return
	}

	var (
		pol   = e.pol
		adapt = pol.Enabled()
		base  = e.dcBase
		shed  int64
	)
	for it := 0; it < n; it++ {
		var pos int
		if seq != nil {
			pos = int(seq[it])
		} else {
			pos = rng.Intn(n)
		}
		i := shard[pos]
		lo, hi := ptr[i], ptr[i+1]
		ri, rv := idx[lo:hi], vals[lo:hi]
		s := step
		if scale != nil {
			s *= scale[pos]
		}
		switch {
		case adapt:
			// The step is decomposed around the adaptive probes: the dot
			// and derivative are computed first so the measured staleness
			// τ — logical updates other workers applied between this
			// update's gradient read and its write — can shed the update
			// or attenuate its step by 1/(1+c·τ), and the write-back goes
			// through UpdateDC so the DC-ASGD correction
			// λ·d²·(w_now − w_base) cancels the drift since the
			// epoch-start base (a plain Update when DCLambda is 0).
			begin := ck.Now()
			g := obj.Deriv(k.Dot(ri, rv), y[i])
			tau := ck.Now() - begin
			if pol.Shed(tau) {
				shed++
				continue
			}
			k.UpdateDC(ri, rv, g, s*pol.Scale(tau), pol.DCLambda, base)
			ck.Tick()
			if sh != nil {
				sh.Observe(tau)
			}
		case sh != nil:
			begin := ck.Now()
			k.Step(ri, rv, y[i], s)
			sh.Observe(ck.Tick() - begin - 1)
		default:
			k.Step(ri, rv, y[i], s)
		}
	}
	if shed > 0 {
		e.shed.Add(shed)
		e.instr.ShedDone(shed)
	}
}

// endOfEpoch refreshes worker t's sample sequence: regenerated in place
// from the sampler (default), or shuffled in place when the paper's
// Section-4.2 approximation is enabled. Both paths reuse the existing
// buffer, keeping steady-state epochs allocation-free.
func (e *Engine) endOfEpoch(t int) {
	if e.seqs == nil || e.seqs[t] == nil {
		return
	}
	if e.shuffleSeq {
		sampling.ShuffleSequence(e.seqs[t], e.rngs[t])
		return
	}
	sampling.SequenceInto(e.seqs[t], e.samplers[t], e.rngs[t])
}
