package stream

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/core"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/sparse"
	"github.com/isasgd/isasgd/internal/spec"
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

	// Uniform disables importance sampling: uniform draws with unit step
	// scale (the online plain-SGD baseline).
	Uniform bool

	// Importance selects the sampling-weight source: "" or "bound" keeps
	// the paper's static Lipschitz upper bounds; "grad" weighs each
	// worker's reservoir, at every rebuild, by the gradient norms
	// |ℓ'(z)|·‖x‖ its updates recorded (adaptive.GradWeights; a row not
	// yet updated takes the largest recorded |ℓ'|). The update loop
	// stores each applied update's |ℓ'| beside the window's rows, so the
	// signal costs no extra pass. It is incompatible with Uniform
	// (uniform draws ignore weights entirely).
	Importance string

	ModelKind model.Kind // shared-model storage; default KindAtomic

	// Precision selects the training data-path width: model.PrecisionF64
	// (the default; "" means f64) or model.PrecisionF32, which promotes
	// ModelKind to its float32 counterpart and streams half-width weights
	// and features through the f32 kernels. Window evaluation and
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
	// ingested blocks, mirroring BlockStats. The trainer publishes with
	// PublishChecked and keeps no version, so a version no reader loaded
	// (by Load, Wait or a publish hook) before the next block lends its
	// buffer to that block's cut: a store read every k blocks allocates
	// about one model-sized buffer per k publishes, not one per publish.
	// Such a buffer holds one of the trainer's two latest cuts, so the cut
	// into it copies only the coordinates the updates wrote since then
	// (see Trainer.publish); a store with a publish hook hands every
	// version out and each cut copies the whole model.
	Snapshots *snapshot.Store
	// PublishEvery is the Snapshots cadence in blocks; <= 0 selects 1.
	PublishEvery int

	// Instruments, when non-nil, receives streaming telemetry: per-block
	// row/update throughput (BlockDone), the IS diagnostics gauges (ESS,
	// ψ̂, reservoir occupancy), alias-rebuild count and latency, and
	// per-worker update-staleness histograms fed from the hot loop. Nil
	// leaves the hot path untouched.
	Instruments *obs.TrainInstruments
}

// BlockStats is the per-block progress record.
type BlockStats struct {
	Block      int64   // 0-based index of the ingested block
	Rows       int     // rows in this block
	WindowRows int64   // rows currently resident
	Updates    int64   // cumulative updates applied
	EstPsi     float64 // ψ̂ (Eq. 15, normalized) over every weight ingested so far
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
// sliding window of blocks. Each ingested block is cut into contiguous
// worker shards of a seeded shuffle (balance.Split), observed into the
// workers' ISStates, appended to the window, and then trained on for
// UpdatesPerBlock importance-sampled (or uniform) updates. Blocks older
// than WindowBlocks are evicted, so memory stays
// O(WindowBlocks·blockSize) regardless of stream length.
//
// The window is one CSR arena, and the updates run through the batch
// engine's update loop (core.Loop): before its updates, each worker
// turns its draws into a plan of (window row, step scale) entries, which
// the loop walks like a pre-generated epoch sequence.
//
// Ingest and the update phase alternate; the Trainer itself is not safe
// for concurrent Ingest calls.
type Trainer struct {
	cfg  Config
	reg  objective.Regularizer
	m    model.Params
	loop core.Loop
	rngs []*xrand.Rand // rngs[0] also shuffles each block
	sts  []*ISState

	win   window
	plans []plan // per worker, reused block to block
	cuts  cutLog

	blocks  int64
	updates int64
	rows    int64 // rows ingested so far; also the next row's ref
	step    float64

	// moments of every weight ingested, for ψ̂ and the ESS gauge
	mom moments
}

// window holds the resident rows as one CSR arena, oldest first: arena
// row r is the row whose stream ref is base+r. Eviction only moves live
// past the evicted rows; compact reclaims them once they are as many as
// the live ones, so each compaction copies at most what was evicted
// since the last one (amortised O(block) per eviction) and the arena
// never holds more than twice the window plus one block.
type window struct {
	x core.Rows
	// Under gradient-norm importance (record), norm and grad run beside
	// x's rows: ‖x_r‖ of the admitted row, and the |ℓ'| the update loop
	// last stored for it, -1 until its first update. Compaction moves
	// them with the rows.
	record bool
	norm   []float64
	grad   []float32
	base   int64 // ref of arena row 0
	live   int   // first resident arena row
	blocks []int // row counts of the resident blocks, oldest first
}

// admit appends b's rows to the arena without their features at or
// beyond dim, which the model cannot hold, so the loop's kernels see
// only in-range indices; with f32 it also keeps the values' float32
// copy, converted once here, and when recording the admitted rows'
// norms. Indices rise within a row, so the dropped features are each
// row's tail.
func (w *window) admit(b *Block, dim int32, f32 bool) {
	x, bx := &w.x, &b.X
	if len(x.IndPtr) == 0 {
		x.IndPtr = append(x.IndPtr, 0)
	}
	from := len(x.Val)
	for i := range b.Y {
		lo, hi := bx.IndPtr[i], bx.IndPtr[i+1]
		for hi > lo && bx.Idx[hi-1] >= dim {
			hi--
		}
		x.Idx = append(x.Idx, bx.Idx[lo:hi]...)
		x.Val = append(x.Val, bx.Val[lo:hi]...)
		x.IndPtr = append(x.IndPtr, int64(len(x.Idx)))
		if w.record {
			w.norm = append(w.norm, sparse.Vector{Val: bx.Val[lo:hi]}.Norm2())
			w.grad = append(w.grad, -1)
		}
	}
	if f32 {
		for _, v := range x.Val[from:] {
			x.Val32 = append(x.Val32, float32(v))
		}
	}
	x.Y = append(x.Y, b.Y...)
	w.blocks = append(w.blocks, b.Len())
}

// evict drops the oldest blocks until at most keep remain, and compacts
// the arena once the evicted rows are at least as many as the live ones.
func (w *window) evict(keep int) {
	for len(w.blocks) > keep {
		w.live += w.blocks[0]
		w.blocks = w.blocks[:copy(w.blocks, w.blocks[1:])]
	}
	if w.live == 0 || w.live < w.rows() {
		return
	}
	x := &w.x
	lo := x.IndPtr[w.live]
	x.Idx = x.Idx[:copy(x.Idx, x.Idx[lo:])]
	x.Val = x.Val[:copy(x.Val, x.Val[lo:])]
	if x.Val32 != nil {
		x.Val32 = x.Val32[:copy(x.Val32, x.Val32[lo:])]
	}
	x.IndPtr = x.IndPtr[:copy(x.IndPtr, x.IndPtr[w.live:])]
	for i := range x.IndPtr {
		x.IndPtr[i] -= lo
	}
	x.Y = x.Y[:copy(x.Y, x.Y[w.live:])]
	if w.record {
		w.norm = w.norm[:copy(w.norm, w.norm[w.live:])]
		w.grad = w.grad[:copy(w.grad, w.grad[w.live:])]
	}
	w.base += int64(w.live)
	w.live = 0
}

// rows returns the number of resident rows.
func (w *window) rows() int { return len(w.x.Y) - w.live }

// first returns the ref of the oldest resident row.
func (w *window) first() int64 { return w.base + int64(w.live) }

// plan is one worker's draws for an update phase: the window rows to
// update, in order, and their step scales (nil on the uniform arm, whose
// scales are all 1).
type plan struct {
	rows    []int
	scales  []float64
	seq     []int32 // 0, 1, 2, …: the loop walks the plan in order
	drawn   int     // draws made this phase, dropped ones included
	applied int64
}

// FromSpec compiles a validated streaming spec into a Config. It
// validates nothing: spec.Spec.Validate has. The sequential algos
// (sgd, is-sgd) train with one worker; the uniform ones (sgd, asgd)
// draw uniformly.
func FromSpec(s spec.Spec) Config {
	a, _ := spec.LookupAlgo(s.Algo)
	obj, _ := objective.Parse(s.Objective, s.Eta)
	prec, _ := model.ParsePrecision(s.Precision)
	workers := s.Threads
	if !a.Async {
		workers = 1
	}
	return Config{
		Obj: obj, Dim: s.Dim,
		Workers: workers, Step: s.Step, StepDecay: s.StepDecay,
		WindowBlocks: s.WindowBlocks, UpdatesPerBlock: s.UpdatesPerBlock,
		Reservoir: s.Reservoir, RebuildEvery: s.RebuildEvery,
		Uniform: !a.Weighted, Seed: s.Seed,
		Precision:  prec,
		Importance: s.Importance,
	}
}

// NewTrainer validates cfg and returns a ready trainer.
func NewTrainer(cfg Config) (*Trainer, error) {
	if cfg.Obj == nil {
		return nil, fmt.Errorf("stream: Config.Obj is required")
	}
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("stream: Config.Dim must be positive, got %d", cfg.Dim)
	}
	if err := adaptive.CheckStep(cfg.Step); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if err := adaptive.CheckDecay(cfg.StepDecay); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if cfg.StepDecay == 0 {
		cfg.StepDecay = 1
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
	// The trainer runs one of two samplers; asgd and is-asgd are the
	// capability table's rows for them.
	sampler := "is-asgd"
	if cfg.Uniform {
		sampler = "asgd"
	}
	if err := spec.Check(sampler, spec.KindStream, false, cfg.Importance); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	t := &Trainer{
		cfg:   cfg,
		reg:   cfg.Obj.Reg(),
		m:     model.New(cfg.ModelKind, cfg.Dim),
		plans: make([]plan, cfg.Workers),
		step:  cfg.Step,
		win:   window{record: cfg.Importance == "grad"},
	}
	if cfg.Snapshots != nil {
		t.cuts.pending = make([][]int32, cfg.Workers)
	}
	// The batch engine's update loop, bound to this model.
	t.loop.Bind(t.m, cfg.Obj)
	t.loop.Instrument(cfg.Instruments, cfg.Workers)
	if cfg.ModelKind.Is32() && cfg.Snapshots != nil {
		// Stamp before the first publish so serving readers can take the
		// lossless half-bandwidth f32 scoring path from version one.
		cfg.Snapshots.SetDType(model.PrecisionF32)
	}
	sm := xrand.NewSplitMix64(cfg.Seed)
	t.rngs = make([]*xrand.Rand, cfg.Workers)
	t.sts = make([]*ISState, cfg.Workers)
	for w := range t.rngs {
		t.rngs[w] = xrand.New(sm.Uint64())
		t.sts[w] = NewISState(cfg.Reservoir, cfg.RebuildEvery, sm.Uint64())
		if t.win.record {
			t.sts[w].win = &t.win
		}
		if ti := cfg.Instruments; ti != nil {
			t.sts[w].SetOnRebuild(ti.RebuildObserved)
		}
	}
	return t, nil
}

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

// EstPsi returns the streaming estimate of ψ (Eq. 15, normalized).
func (t *Trainer) EstPsi() float64 { return t.mom.psi() }

// moments are the all-time moments of the ingested importance weights:
// their count, Σw and Σw².
type moments struct {
	count      int64
	sum, sumSq float64
}

func (m *moments) add(w float64) {
	m.count++
	m.sum += w
	m.sumSq += w * w
}

// psi returns ψ of Eq. 15 in its normalized form, (Σw)²/(n·Σw²); 0
// before any non-zero weight.
func (m *moments) psi() float64 {
	if m.sumSq == 0 {
		return 0
	}
	return m.sum * m.sum / (float64(m.count) * m.sumSq)
}

// Ingest admits one block into the window, assigns its rows to worker
// shards, slides the window, and runs the update budget.
func (t *Trainer) Ingest(b *Block) BlockStats {
	// The weights come from the full rows, features beyond Dim included.
	l := objective.Weights(&b.X, t.cfg.Obj)
	for _, w := range l {
		t.mom.add(w)
	}

	// Shard the block as the batch engine and the cluster shard their
	// data: contiguous cuts of a seeded shuffle.
	shards := balance.Split(t.rngs[0].Perm(len(l)), t.cfg.Workers)

	// Admit the block, then feed each worker its shard. A row's ref is
	// its position in the trainer's ingest order, so a window row is
	// found from its ref by subtraction.
	first := t.rows
	t.win.admit(b, int32(t.cfg.Dim), t.cfg.ModelKind.Is32())
	t.rows += int64(b.Len())
	for w, shard := range shards {
		for _, pos := range shard {
			t.sts[w].Observe(first+int64(pos), l[pos])
		}
	}

	// Slide the window and retire dead refs.
	t.win.evict(t.cfg.WindowBlocks)
	for _, st := range t.sts {
		st.EvictBefore(t.win.first())
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
	start := time.Now()
	t.runUpdates(b.Len())
	if ti := t.cfg.Instruments; ti != nil {
		ti.BlockDone(b.Len(), t.updates-before, time.Since(start))
		ess := t.EstPsi() * float64(t.mom.count)
		reservoir := 0
		for _, st := range t.sts {
			reservoir += st.Len()
		}
		ti.SetISStats(ess, t.EstPsi(), reservoir)
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
		Block: t.blocks - 1, Rows: b.Len(), WindowRows: int64(t.win.rows()),
		Updates: t.updates, EstPsi: t.EstPsi(),
		Imbalance: balance.Imbalance(balance.ImportanceSums(shards, l)),
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
		t.plans[w].applied = t.work(w, quota)
	})
	for _, p := range t.plans {
		t.updates += p.applied
	}
	t.cuts.bound(t.cfg.Dim / maxPatchFrac)
}

// work applies worker w's quota of updates and returns how many it
// applied: it draws one plan of at most 4·quota draws and runs it
// through the update loop.
// Under gradient-norm importance the loop stores each update's |ℓ'|
// beside its window row, which only this worker's draws reach; nothing
// reads them before the next rebuild. The supports of the rows it ran go
// on the worker's own list for the next cut (cutLog).
func (t *Trainer) work(w, quota int) int64 {
	p := &t.plans[w]
	t.draw(w, quota, 4*quota)
	if len(p.rows) > 0 {
		t.loop.Run(w, &t.win.x, p.rows, p.seq, p.scales, t.step, t.win.grad)
		t.cuts.wrote(w, &t.win.x, p.rows)
	}
	return int64(len(p.rows))
}

// draw refills worker w's plan with want draws from its ISState, making
// at most budget draws. A draw whose row was evicted since the last
// rebuild, or whose scale is zero, spends its draw and is dropped; the
// plan stays short when nothing has been published to draw from. The
// draws come from the worker's generator in the order they are made, so
// the draw sequence is the one that drawing each row inside the loop
// gives.
func (t *Trainer) draw(w, want, budget int) {
	p, rng, st, first := &t.plans[w], t.rngs[w], t.sts[w], t.win.first()
	p.rows, p.seq, p.scales, p.drawn = p.rows[:0], p.seq[:0], p.scales[:0], 0
	for len(p.rows) < want && p.drawn < budget {
		p.drawn++
		var (
			e     Entry
			scale = 1.0
			ok    bool
		)
		if t.cfg.Uniform {
			e, ok = st.SampleUniform(rng)
		} else {
			e, scale, ok = st.Sample(rng)
		}
		if !ok {
			return
		}
		if e.Ref < first || scale <= 0 {
			continue
		}
		p.seq = append(p.seq, int32(len(p.rows)))
		p.rows = append(p.rows, int(e.Ref-t.win.base))
		if !t.cfg.Uniform {
			p.scales = append(p.scales, scale)
		}
	}
}

// minCutRange is the fewest coordinates worth a worker of their own when
// a snapshot is cut; smaller models are copied by the caller alone.
const minCutRange = 1 << 14

// maxPatchFrac bounds a patched cut: one whose lists name more than
// Dim/maxPatchFrac coordinates copies the whole model instead, and lists
// that grow past that are dropped. A listed coordinate is a random
// gather and scatter on one goroutine, a full cut a sequential copy on
// every worker. BenchmarkTrainerPublish (dim 600 000, 2 workers, 2 vCPU,
// coordinates spread uniformly, so no repeat hits the cache) timed a
// patch at 12–21 ns per listed coordinate for 16 k to 260 k coordinates
// and the full cut at 0.72–1.03 ms of wall time, about twice that of
// CPU. At Dim/16 = 37 500 coordinates a patch costs about a full cut's
// wall time and half its CPU. A stream_e2e block lists about 10 000, and
// a patch copies two blocks' lists.
const maxPatchFrac = 16

// cutLog records which coordinates the updates wrote, so a cut into the
// buffer of one of the trainer's recent versions copies only those.
// Between two cuts the model changes only in the supports of the rows
// the workers' plans ran: every update the loop applies and the
// regularizer term it fuses touch only its row's support, and nothing
// else writes the model.
type cutLog struct {
	// s1 < s2 are the seqs of the trainer's last two accepted cuts; 0 is
	// unknown, after a dropped list or before the first two cuts.
	s1, s2 uint64
	// last lists the coordinates written between cuts s1 and s2, and
	// pending[w] those worker w wrote since cut s2. A coordinate may be
	// listed many times; it is copied as many. pending is nil when the
	// trainer publishes nothing.
	last    []int32
	pending [][]int32
	// patched counts the cuts that copied only the listed coordinates.
	patched int
}

// wrote lists the supports of worker w's plan rows after the loop ran
// them.
func (c *cutLog) wrote(w int, x *core.Rows, rows []int) {
	if c.pending == nil {
		return
	}
	p := c.pending[w]
	for _, r := range rows {
		p = append(p, x.Idx[x.IndPtr[r]:x.IndPtr[r+1]]...)
	}
	c.pending[w] = p
}

// pendingLen returns how many coordinates pending lists.
func (c *cutLog) pendingLen() int {
	n := 0
	for _, p := range c.pending {
		n += len(p)
	}
	return n
}

// bound drops pending once it lists more than limit coordinates: no
// patch would use it, and it would otherwise grow without bound across
// rejected cuts or a long PublishEvery. Cut s2 is then unknown.
func (c *cutLog) bound(limit int) {
	if c.pending == nil || c.pendingLen() <= limit {
		return
	}
	for w := range c.pending {
		c.pending[w] = c.pending[w][:0]
	}
	c.s1, c.s2 = 0, 0
}

// patch copies and screens last (nil for none) and then pending from m
// into dst, which holds the cut before them.
func (c *cutLog) patch(m model.Params, dst []float64, last []int32) bool {
	finite := m.SnapshotIdx(dst, last)
	for _, p := range c.pending {
		finite = m.SnapshotIdx(dst, p) && finite
	}
	c.patched++
	return finite
}

// accepted moves the lists on past the store's acceptance of cut seq:
// pending becomes last and starts empty.
func (c *cutLog) accepted(seq uint64) {
	c.s1, c.s2 = c.s2, seq
	c.last = c.last[:0]
	for w, p := range c.pending {
		c.last = append(c.last, p...)
		c.pending[w] = p[:0]
	}
}

// publish cuts the current weights into the snapshot store. When the
// store hands it the buffer of the trainer's last accepted cut, only the
// coordinates written since (pending) are copied; when it holds the cut
// before that, last and then pending are. Each listed coordinate is
// screened for finiteness as it is copied; the others are unchanged since
// the held cut, which the store accepted, so they are finite and already
// equal to the model's values. Any other buffer — the first, a fresh one,
// one another producer filled, or a patch over Dim/maxPatchFrac
// coordinates — takes the full cut: one fused copy-and-finiteness pass
// over the model, split into contiguous ranges across the workers, which
// are idle between update phases. A rejected cut keeps pending, since the
// model still differs from cut s2 exactly there.
func (t *Trainer) publish() {
	c := &t.cuts
	seq := t.cfg.Snapshots.PublishChecked(int(t.blocks), t.updates, func(dst []float64, held uint64) ([]float64, bool) {
		dim := t.cfg.Dim
		switch {
		case held == 0:
		case held == c.s2:
			return dst, c.patch(t.m, dst, nil)
		case held == c.s1 && len(c.last)+c.pendingLen() <= dim/maxPatchFrac:
			return dst, c.patch(t.m, dst, c.last)
		}
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
	if seq != 0 {
		c.accepted(seq)
	}
}

// EvaluateWindow scores the current model on every resident row and
// returns the mean objective (loss + penalty), RMSE and error rate over
// the window, plus the row count. It costs O(window) and is intended for
// between-block progress reporting; rows == 0 yields zeros.
func (t *Trainer) EvaluateWindow() (obj, rmse, errRate float64, rows int64) {
	n := t.win.rows()
	if n == 0 {
		return 0, 0, 0, 0
	}
	// The resident rows as a dataset: IndPtr's offsets are the arena's,
	// so the view shares the arena's Idx and Val whole.
	x, live := &t.win.x, t.win.live
	d := &dataset.Dataset{X: &sparse.CSR{Dim: t.cfg.Dim, IndPtr: x.IndPtr[live:], Idx: x.Idx, Val: x.Val}, Y: x.Y[live:]}
	ev := metrics.Evaluate(d, t.cfg.Obj, t.Snapshot(nil), 1)
	return ev.Obj, ev.RMSE, ev.ErrRate, int64(n)
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
// goroutine is done with r. Each block goes back to r once it is
// ingested, so after the first few blocks r refills old ones instead of
// allocating.
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
		r.recycle(next.b)
	}
	if t.cfg.Snapshots != nil && t.blocks%int64(t.cfg.PublishEvery) != 0 {
		// The cadence missed the last ingested block: publish the final
		// weights so the store ends on what Run returns.
		t.publish()
	}
	res := t.result()
	// Mirror core.Train's divergence contract: a run whose weights went
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
