package stream

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/kernel"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/xrand"
)

// Config controls a streaming training run. Zero values select the
// documented defaults.
type Config struct {
	Obj objective.Objective // required
	Dim int                 // required: fixed model dimensionality

	Workers   int     // concurrent update workers; default GOMAXPROCS
	Step      float64 // λ; required > 0
	StepDecay float64 // per-block multiplicative decay; default 1

	// WindowBlocks is the number of ingested blocks kept resident (the
	// sliding training window); default 4.
	WindowBlocks int
	// UpdatesPerBlock is the total SGD updates (across all workers)
	// performed after each block arrives; default: the block's row count
	// (one pass worth).
	UpdatesPerBlock int
	// Reservoir is the per-worker ISState capacity; default 1 << 14.
	// At least ceil(WindowBlocks·blockSize/Workers) makes windowed
	// importance sampling exact; smaller trades fidelity for memory.
	Reservoir int
	// RebuildEvery is the alias-rebuild cadence in observations; <= 0
	// rebuilds once per ingested block (the default — the window only
	// changes at block granularity, so finer cadences buy nothing unless
	// Observe is also called between blocks).
	RebuildEvery int

	// Mode selects per-block shard preparation (Algorithm 4 lines 2–6
	// applied blockwise). Auto takes the balance branch when the
	// streaming estimate of ρ (from all-time weight moments) reaches
	// Zeta; ForceBalance/ForceShuffle/Sorted/LPT behave as in batch.
	Mode balance.Mode
	Zeta float64 // ρ threshold; <= 0 selects balance.DefaultZeta

	// Uniform disables importance sampling: uniform draws with unit step
	// scale (the online plain-SGD baseline).
	Uniform bool

	// Importance selects the sampling-weight source: "" or "bound" keeps
	// the paper's static Lipschitz upper bounds; "loss" re-weights each
	// worker's reservoir by observed per-row loss EMAs (loss-feedback
	// importance), falling back to the bound for rows whose loss has not
	// been measured yet. Loss mode decomposes each update into
	// score → write-back so the measured loss feeds straight back into the
	// sampler; it is incompatible with Uniform (uniform draws ignore
	// weights entirely).
	Importance string
	// LossBeta is the loss-EMA observation weight in loss mode; values
	// outside (0, 1] select adaptive.DefaultLossBeta.
	LossBeta float64

	// AdaptC, when > 0, scales each update's step by 1/(1+AdaptC·τ) where
	// τ is that update's measured staleness (asynchronous updates other
	// workers applied between its gradient read and its write).
	AdaptC float64
	// StalenessBound, when > 0, sheds updates whose measured τ exceeds it
	// instead of applying them (shed counts surface via Trainer.Shed and
	// the isasgd_train_updates_shed_total counter).
	StalenessBound int64

	ModelKind model.Kind // shared-model storage; default KindAtomic

	// Precision selects the training data-path width: model.PrecisionF64
	// (the default; "" means f64) or model.PrecisionF32, which promotes
	// ModelKind to its float32 counterpart and streams half-width weights
	// and features through the f32 kernels. The feature-blocked layout
	// (KindRacy32Blocked) requires the batch engine's one-time CSR remap
	// and silently falls back to flat KindRacy32 here — streamed rows
	// resolve by reference, with no remap point. Window evaluation and
	// Snapshot stay float64.
	Precision string

	Seed uint64

	// OnBlock, when non-nil, is invoked synchronously after each block
	// is trained on.
	OnBlock func(BlockStats)

	// Snapshots, when non-nil, receives versioned weight snapshots while
	// the stream trains: one version every PublishEvery ingested blocks
	// (cut after the block's update budget, before OnBlock fires) plus a
	// final version when Run drains if the cadence missed the last block.
	// Serving consumers read the store lock-free mid-stream — Epoch counts
	// ingested blocks, mirroring BlockStats.
	Snapshots *snapshot.Store
	// PublishEvery is the Snapshots cadence in blocks; <= 0 selects 1.
	PublishEvery int

	// Instruments, when non-nil, receives streaming telemetry: per-block
	// row/update throughput (BlockDone), the IS diagnostics gauges (ESS,
	// ρ̂, ψ̂, reservoir occupancy), alias-rebuild count and latency, and
	// per-worker update-staleness histograms fed from the hot loop. Nil
	// leaves the hot path untouched.
	Instruments *obs.TrainInstruments
}

// BlockStats is the per-block progress record.
type BlockStats struct {
	Block      int64 // 0-based index of the ingested block
	Rows       int   // rows in this block
	WindowRows int64 // rows currently resident
	Updates    int64 // cumulative updates applied
	Balanced   bool  // whether this block took the balance branch
	EstRho     float64
	EstPsi     float64
	Imbalance  float64 // Φ imbalance of this block's shard assignment
}

// Result summarizes a completed streaming run.
type Result struct {
	Blocks  int64
	Rows    int64
	Updates int64
	Weights []float64
}

// Trainer drives core-style multi-worker asynchronous updates over a
// sliding window of blocks. Each ingested block is shard-assigned to
// workers with internal/balance (head–tail importance balancing or
// shuffle, adaptively on the streamed ρ estimate), observed into the
// workers' ISStates, and then trained on for UpdatesPerBlock
// importance-sampled (or uniform) updates. Blocks older than
// WindowBlocks are evicted, so memory stays O(WindowBlocks·blockSize)
// regardless of stream length.
//
// Ingest and the update phase alternate; the Trainer itself is not safe
// for concurrent Ingest calls.
type Trainer struct {
	cfg Config
	reg objective.Regularizer
	m   model.Params
	// Exactly one kernel is bound: kern32 iff the model stores float32 —
	// the update workers then stream half-width weights and features
	// through it, with blocks materializing their f32 value views at
	// ingest — kern otherwise.
	kern   kernel.Kernel
	kern32 kernel.Kernel32
	rngs   []*xrand.Rand // rngs[0] also drives shard planning
	sts    []*ISState

	window  []*Block // oldest first; at most WindowBlocks once Ingest returns
	winRows int64
	blocks  int64
	updates int64
	rows    int64
	step    float64
	applied []int64 // per-worker update counts of the current block

	// streamed weight moments for the Auto balance decision
	count int64
	sumW  float64
	sumW2 float64

	// per-worker staleness histograms; nil when uninstrumented
	staleH []*obs.Histogram

	// ck is the one logical update clock: it ticks once per applied
	// update whenever something reads it — the τ histograms, the adaptive
	// probe, or both.
	ck adaptive.Clock

	// adaptive-update state: the policy (zero when disabled), whether
	// loss-feedback importance is on, and the cumulative shed count (each
	// worker adds its block's sheds once, when its quota is done).
	pol      adaptive.Policy
	lossMode bool
	shed     atomic.Int64
}

// NewTrainer validates cfg and returns a ready trainer.
func NewTrainer(cfg Config) (*Trainer, error) {
	if cfg.Obj == nil {
		return nil, fmt.Errorf("stream: Config.Obj is required")
	}
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("stream: Config.Dim must be positive, got %d", cfg.Dim)
	}
	if cfg.Step <= 0 {
		return nil, fmt.Errorf("stream: Config.Step must be positive, got %g", cfg.Step)
	}
	if cfg.StepDecay == 0 {
		cfg.StepDecay = 1
	}
	if cfg.StepDecay < 0 || cfg.StepDecay > 1 {
		return nil, fmt.Errorf("stream: Config.StepDecay must be in (0, 1], got %g", cfg.StepDecay)
	}
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.WindowBlocks < 1 {
		cfg.WindowBlocks = 4
	}
	if cfg.Reservoir < 1 {
		cfg.Reservoir = 1 << 14
	}
	if cfg.Zeta <= 0 {
		cfg.Zeta = balance.DefaultZeta
	}
	if cfg.PublishEvery < 1 {
		cfg.PublishEvery = 1
	}
	prec, err := model.ParsePrecision(cfg.Precision)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if prec == model.PrecisionF32 {
		cfg.ModelKind = cfg.ModelKind.As32()
	}
	if cfg.ModelKind == model.KindRacy32Blocked {
		// The blocked scatter needs a one-time remap of every row's
		// indices (the batch engine bakes it into the CSR); streamed rows
		// resolve by reference with no such point, so run flat.
		cfg.ModelKind = model.KindRacy32
	}
	switch cfg.Importance {
	case "", "bound":
	case "loss":
		if cfg.Uniform {
			return nil, fmt.Errorf("stream: Importance=loss is incompatible with Uniform (uniform draws ignore weights)")
		}
	default:
		return nil, fmt.Errorf("stream: Config.Importance must be %q, %q or %q, got %q", "", "bound", "loss", cfg.Importance)
	}
	pol := adaptive.Policy{AdaptC: cfg.AdaptC, StalenessBound: cfg.StalenessBound}
	if err := pol.Validate(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if cfg.StalenessBound < 0 {
		return nil, fmt.Errorf("stream: Config.StalenessBound must be non-negative, got %d", cfg.StalenessBound)
	}
	t := &Trainer{
		cfg:      cfg,
		reg:      cfg.Obj.Reg(),
		m:        model.New(cfg.ModelKind, cfg.Dim),
		window:   make([]*Block, 0, cfg.WindowBlocks+1),
		applied:  make([]int64, cfg.Workers),
		step:     cfg.Step,
		pol:      pol,
		lossMode: cfg.Importance == "loss",
	}
	// Same devirtualized hot path as the batch engine; rows whose
	// features exceed Dim go through the clamped variants.
	if cfg.ModelKind.Is32() {
		t.kern32 = kernel.New32(t.m, cfg.Obj)
		if cfg.Snapshots != nil {
			// Stamp before the first publish so serving readers can take the
			// lossless half-bandwidth f32 scoring path from version one.
			cfg.Snapshots.SetDType(model.PrecisionF32)
		}
	} else {
		t.kern = kernel.New(t.m, cfg.Obj)
	}
	sm := xrand.NewSplitMix64(cfg.Seed)
	t.rngs = make([]*xrand.Rand, cfg.Workers)
	t.sts = make([]*ISState, cfg.Workers)
	for w := range t.rngs {
		t.rngs[w] = xrand.New(sm.Uint64())
		t.sts[w] = NewISState(cfg.Reservoir, cfg.RebuildEvery, sm.Uint64())
		if t.lossMode {
			t.sts[w].EnableLossFeedback(cfg.LossBeta)
		}
		if ti := cfg.Instruments; ti != nil {
			t.sts[w].SetOnRebuild(ti.RebuildObserved)
		}
	}
	if ti := cfg.Instruments; ti != nil {
		t.staleH = ti.WorkerStaleness(cfg.Workers)
	}
	return t, nil
}

// Model exposes the shared model.
func (t *Trainer) Model() model.Params { return t.m }

// SetOnBlock installs (or replaces) the per-block progress callback.
// Callers that need the trainer itself inside the callback (e.g. to call
// EvaluateWindow) construct first, then install. Must not be called
// while Ingest or Run is in flight.
func (t *Trainer) SetOnBlock(fn func(BlockStats)) { t.cfg.OnBlock = fn }

// Snapshot copies the current model into dst.
func (t *Trainer) Snapshot(dst []float64) []float64 { return t.m.Snapshot(dst) }

// Updates returns the cumulative update count.
func (t *Trainer) Updates() int64 { return t.updates }

// Rows returns the number of rows ingested so far.
func (t *Trainer) Rows() int64 { return t.rows }

// Shed returns the cumulative number of updates dropped because their
// measured staleness exceeded Config.StalenessBound.
func (t *Trainer) Shed() int64 { return t.shed.Load() }

// EstRho returns the streaming estimate of ρ (Eq. 20) over all weights
// observed so far.
func (t *Trainer) EstRho() float64 {
	if t.count == 0 {
		return 0
	}
	mean := t.sumW / float64(t.count)
	v := t.sumW2/float64(t.count) - mean*mean
	if v < 0 {
		v = 0
	}
	return v
}

// EstPsi returns the streaming estimate of ψ (Eq. 15, normalized).
func (t *Trainer) EstPsi() float64 {
	if t.count == 0 || t.sumW2 == 0 {
		return 0
	}
	return t.sumW * t.sumW / (float64(t.count) * t.sumW2)
}

// Ingest admits one block into the window, assigns its rows to worker
// shards, slides the window, and runs the update budget.
func (t *Trainer) Ingest(b *Block) BlockStats {
	l := b.Weights(t.cfg.Obj)
	for _, w := range l {
		t.count++
		t.sumW += w
		t.sumW2 += w * w
	}

	// Resolve Algorithm 4's branch from streamed moments (the block alone
	// is too small a sample, and the full data is gone).
	mode := t.cfg.Mode
	balanced := false
	switch mode {
	case balance.ForceBalance, balance.LPT:
		balanced = true
	case balance.ForceShuffle, balance.Sorted:
	default: // Auto
		if t.EstRho() >= t.cfg.Zeta {
			mode = balance.ForceBalance
			balanced = true
		} else {
			mode = balance.ForceShuffle
		}
	}
	order, _ := balance.Plan(l, t.cfg.Workers, mode, t.cfg.Zeta, t.rngs[0])
	shards := balance.Split(order, t.cfg.Workers)
	imbal := balance.Imbalance(balance.ImportanceSums(shards, l))

	// Admit the block, then feed each worker its shard. The f32 path
	// converts the block's feature values once, here, before any update
	// worker can race the lazy build.
	if t.kern32 != nil {
		b.EnsureVal32()
	}
	t.window = append(t.window, b)
	t.winRows += int64(b.Len())
	t.rows += int64(b.Len())
	for w, shard := range shards {
		for _, pos := range shard {
			t.sts[w].Observe(b.Start+int64(pos), l[pos])
		}
	}

	// Slide the window and retire dead refs. Copying down (instead of
	// re-slicing from the front) and clearing the vacated slot drops the
	// last reference to the evicted block, so it is collectable at once.
	for len(t.window) > t.cfg.WindowBlocks {
		t.winRows -= int64(t.window[0].Len())
		n := copy(t.window, t.window[1:])
		t.window[n] = nil
		t.window = t.window[:n]
	}
	if len(t.window) > 0 {
		minRef := t.window[0].Start
		for _, st := range t.sts {
			st.EvictBefore(minRef)
		}
	}
	// Per-block rebuild cadence (see Config.RebuildEvery). Rebuilding
	// after eviction also purges stale refs from the published tables.
	// The first block always publishes a table: without the bootstrap, a
	// coarse observation cadence would leave workers with nothing to
	// sample — silently training zero updates — until RebuildEvery
	// observations accumulated.
	if t.cfg.RebuildEvery <= 0 || t.blocks == 0 {
		for _, st := range t.sts {
			st.Rebuild()
		}
	}

	before := t.updates
	shedBefore := t.shed.Load()
	start := time.Now()
	t.runUpdates(b.Len())
	if ti := t.cfg.Instruments; ti != nil {
		ti.BlockDone(b.Len(), t.updates-before, time.Since(start))
		ti.ShedDone(t.shed.Load() - shedBefore)
		var ess float64
		if t.sumW2 > 0 {
			ess = t.sumW * t.sumW / t.sumW2
		}
		reservoir := 0
		for _, st := range t.sts {
			reservoir += st.Len()
		}
		ti.SetISStats(ess, t.EstRho(), t.EstPsi(), reservoir)
	}
	t.step *= t.cfg.StepDecay
	t.blocks++
	if t.cfg.Snapshots != nil && t.blocks%int64(t.cfg.PublishEvery) == 0 {
		// Cut the mid-stream version before OnBlock, so a progress
		// callback that registers the model for serving always finds a
		// servable store.
		t.publish()
	}

	stats := BlockStats{
		Block: t.blocks - 1, Rows: b.Len(), WindowRows: t.winRows,
		Updates: t.updates, Balanced: balanced,
		EstRho: t.EstRho(), EstPsi: t.EstPsi(), Imbalance: imbal,
	}
	if t.cfg.OnBlock != nil {
		t.cfg.OnBlock(stats)
	}
	return stats
}

// fanOut runs fn(0) … fn(n-1) concurrently, fn(0) on the caller's
// goroutine, and returns when all are done. These are the trainer's
// workers: the update budget and the snapshot cut both run on them.
func fanOut(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	fn(0)
	wg.Wait()
}

// runUpdates executes the post-ingest update budget, concurrently when
// Workers > 1.
func (t *Trainer) runUpdates(blockRows int) {
	budget := t.cfg.UpdatesPerBlock
	if budget <= 0 {
		budget = blockRows
	}
	per, rem := budget/t.cfg.Workers, budget%t.cfg.Workers
	fanOut(t.cfg.Workers, func(w int) {
		quota := per
		if w < rem {
			quota++
		}
		if t.kern32 != nil {
			t.applied[w] = workerUpdates(t, w, quota, t.kern32, (*Block).Val32)
		} else {
			t.applied[w] = workerUpdates[float64](t, w, quota, t.kern, (*Block).Val)
		}
	})
	for _, n := range t.applied {
		t.updates += n
	}
}

// minCutRange is the fewest coordinates worth a worker of their own when
// a snapshot is cut; smaller models are copied by the caller alone.
const minCutRange = 1 << 14

// publish cuts the current weights into the snapshot store. The cut is
// one fused copy-and-finiteness pass over the model, split into
// contiguous ranges across the workers, which are idle between update
// phases — instead of a single-goroutine copy followed by the store's own
// finiteness scan.
func (t *Trainer) publish() {
	t.cfg.Snapshots.PublishChecked(int(t.blocks), t.updates, func(dst []float64) ([]float64, bool) {
		dim := t.cfg.Dim
		if cap(dst) < dim {
			dst = make([]float64, dim)
		}
		dst = dst[:dim]
		parts := min(t.cfg.Workers, (dim+minCutRange-1)/minCutRange)
		var nonFinite atomic.Bool
		fanOut(parts, func(p int) {
			if !t.m.SnapshotRange(dst, p*dim/parts, (p+1)*dim/parts) {
				nonFinite.Store(true)
			}
		})
		return dst, !nonFinite.Load()
	})
}

// workerUpdates is the hot loop, written once over the feature value
// type (k and vals are the trainer's kernel and the blocks' value
// accessor in that precision): draw a row from the worker's ISState,
// fetch it from the window, apply one scaled sparse update. Stale draws
// (rows evicted between rebuilds) are skipped; the attempt budget bounds
// the loop when the worker's whole reservoir went stale.
//
// With an adaptive policy or loss feedback on, each step is decomposed
// around the probes: the dot and derivative are computed first so the
// measured staleness τ (updates other workers applied between the
// gradient read and this write) can shed the update or attenuate its
// step by 1/(1+c·τ), and in loss-feedback mode the sample's measured
// loss is folded back into its reservoir EMA after the write. Shed
// attempts consume the attempt budget but not the quota.
func workerUpdates[V float32 | float64](t *Trainer, w, quota int, k kernel.Ops[V], vals func(*Block, int) []V) int64 {
	var (
		obj      = t.cfg.Obj
		rng      = t.rngs[w]
		st       = t.sts[w]
		step     = t.step
		pol      = t.pol
		probe    = t.lossMode || pol.Enabled()
		ck       = &t.ck
		applied  int64
		shed     int64
		attempts = 4 * quota
		sh       *obs.Histogram
	)
	if t.staleH != nil {
		sh = t.staleH[w]
	}
	for int(applied) < quota && attempts > 0 {
		attempts--
		var (
			e     Entry
			scale float64
			ok    bool
		)
		if t.cfg.Uniform {
			e, ok = st.SampleUniform(rng)
			scale = 1
		} else {
			e, scale, ok = st.Sample(rng)
		}
		if !ok {
			break // nothing published yet
		}
		b, i := t.locate(e.Ref)
		if b == nil || scale <= 0 {
			continue // evicted between rebuilds, or zero-weight entry
		}
		idx, val, y := b.Rows[i].Idx, vals(b, i), b.Y[i]
		s := step * scale
		switch {
		case probe:
			begin := ck.Now()
			z := k.DotClamped(idx, val)
			g := obj.Deriv(z, y)
			tau := ck.Now() - begin
			if pol.Shed(tau) {
				shed++
				continue
			}
			k.UpdateClamped(idx, val, g, s*pol.Scale(tau))
			ck.Tick()
			if sh != nil {
				sh.Observe(tau)
			}
			if t.lossMode {
				st.ObserveLoss(e.Ref, obj.Loss(z, y))
			}
		case sh != nil:
			begin := ck.Now()
			k.StepClamped(idx, val, y, s)
			sh.Observe(ck.Tick() - begin - 1)
		default:
			k.StepClamped(idx, val, y, s)
		}
		applied++
	}
	if shed > 0 {
		t.shed.Add(shed)
	}
	return applied
}

// EvaluateWindow scores the current model on every resident row and
// returns the mean objective (loss + penalty), RMSE and error rate over
// the window, plus the row count. It costs O(window) and is intended for
// between-block progress reporting; rows == 0 yields zeros.
func (t *Trainer) EvaluateWindow() (obj, rmse, errRate float64, rows int64) {
	if t.winRows == 0 {
		return 0, 0, 0, 0
	}
	w := t.Snapshot(nil)
	var loss, lossSq float64
	var errs int64
	for _, b := range t.window {
		for i, v := range b.Rows {
			z := kernel.DotClamped(w, v.Idx, v.Val)
			l := t.cfg.Obj.Loss(z, b.Y[i])
			loss += l
			lossSq += l * l
			if t.cfg.Obj.Predict(z) != b.Y[i] {
				errs++
			}
		}
	}
	fn := float64(t.winRows)
	return loss/fn + t.reg.Penalty(w), math.Sqrt(lossSq / fn), float64(errs) / fn, t.winRows
}

// locate resolves a global row ref to its resident block and the row's
// position in it, or a nil block once the row has been evicted. The
// window holds a handful of blocks and draws land in all of them, so a
// scan from the newest beats a binary search's closure call.
func (t *Trainer) locate(ref int64) (*Block, int) {
	for i := len(t.window) - 1; i >= 0; i-- {
		if b := t.window[i]; ref >= b.Start {
			if k := int(ref - b.Start); k < b.Len() {
				return b, k
			}
			break
		}
	}
	return nil, 0
}

// readAhead is how many parsed blocks may wait between Run's reading
// goroutine and the training loop. It is a constant, not a knob: both
// stages do near-constant work per block, so the slower one sets the pace
// whatever the depth, and two blocks are enough to ride out a stall on
// either side (a garbage collection, a slow Read). With the block being
// parsed and the one being trained on, Run holds at most readAhead+2
// blocks beyond the window.
const readAhead = 2

// Run streams every block of r through the trainer until EOF, a read
// error, or ctx cancellation (checked between blocks), and returns the
// run summary with the final weights.
//
// Parsing overlaps training: Run starts one goroutine that calls r.Next
// into a queue of readAhead blocks while the caller's goroutine ingests
// (and publishes) them in stream order. Everything observable is as if
// the two took turns — blocks arrive in order, every block ahead of a
// bad line or a failed Read is trained on before that error is returned,
// and a version is published before its block's OnBlock fires — except
// that r may have read up to readAhead+1 blocks past the last one
// trained when Run stops early. Run returns only once the reading
// goroutine is done with r.
func (t *Trainer) Run(ctx context.Context, r *Reader) (*Result, error) {
	type read struct {
		b   *Block
		err error
	}
	var (
		ahead = make(chan read, readAhead) // see readAhead for the depth
		stop  = make(chan struct{})
	)
	go func() {
		defer close(ahead)
		for {
			select {
			case <-stop:
				return
			default:
			}
			b, err := r.Next()
			select {
			case ahead <- read{b, err}:
			case <-stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	// The reader goroutine closes ahead as its last act, after its final
	// r.Next: draining until then is what keeps it off r after Run.
	defer func() {
		close(stop)
		for range ahead {
		}
	}()
	for {
		if err := ctx.Err(); err != nil {
			return t.result(), fmt.Errorf("stream: training cancelled at block %d: %w", t.blocks, err)
		}
		next := <-ahead
		if next.err == io.EOF {
			break
		}
		if next.err != nil {
			return t.result(), next.err
		}
		t.Ingest(next.b)
	}
	if t.cfg.Snapshots != nil && t.blocks%int64(t.cfg.PublishEvery) != 0 {
		// The cadence missed the last ingested block: publish the final
		// weights so the store ends on what Run returns.
		t.publish()
	}
	res := t.result()
	// Mirror solver.Train's divergence contract: a run whose weights went
	// non-finite must fail, not quietly persist NaN (the snapshot store
	// already refuses such versions, so served and returned state would
	// otherwise disagree).
	if j := model.FirstNonFinite(res.Weights); j >= 0 {
		return res, fmt.Errorf("stream: diverged: non-finite weight %g at coordinate %d (reduce Step)", res.Weights[j], j)
	}
	return res, nil
}

func (t *Trainer) result() *Result {
	return &Result{
		Blocks: t.blocks, Rows: t.rows, Updates: t.updates,
		Weights: t.Snapshot(nil),
	}
}
