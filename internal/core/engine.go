// Package core implements the paper's contribution: the IS-ASGD training
// engine of Algorithm 4, together with its degenerate configurations —
// one worker with uniform sampling is plain SGD (Eq. 3), one worker with
// importance sampling is IS-SGD (Algorithm 2), many workers with uniform
// sampling is Hogwild ASGD (Recht et al. 2011), and many workers with
// local importance sampling over their shards is IS-ASGD.
// SVRG (NewSVRG) is the uniform construction plus a per-epoch anchor
// pass, in the sparse form that keeps its update O(nnz). Train drives
// any of them through epochs, evaluation and publication.
//
// The engine follows the paper's performance recipe exactly:
//
//   - sample sequences are generated offline (Algorithm 2 line 3 /
//     Algorithm 4 line 12), so the online kernel is identical to ASGD:
//     one sparse dot, one scalar loss derivative, one sparse axpy. The
//     uniform constructions pre-generate theirs too, one epoch at a time;
//   - because each worker's whole sequence is known before its pass, the
//     worker loop looks ahead along it and touches the rows of upcoming
//     updates (their CSR offsets, first index and value line, label and
//     step scale) while the current update runs. A row is a chain of
//     dependent cache misses, and on the atomic model every CAS is a
//     fence that keeps the CPU from running ahead into the next row by
//     itself; the early touches put those misses in flight beforehand;
//   - each worker owns a contiguous shard of the (rearranged) dataset
//     and a sampling distribution computed from its local Lipschitz
//     constants (Algorithm 4 lines 9–11);
//   - the shard layout is a seeded shuffle, for IS as for uniform
//     sampling: it leaves the shards' importance sums Φ_a at least as
//     close to equal as Algorithm 3's head–tail order on every corpus
//     measured (internal/balance), which the reproduction still runs
//     where Algorithm 4's ρ ≥ ζ rule picks it;
//   - updates go through a shared model with either CAS (race-free) or
//     plain (true Hogwild) writes, via internal/kernel's devirtualized
//     fused update kernels — the update loop only resolves the next row
//     and step, and the arithmetic lives in exactly one place;
//   - an engine with more than one worker stores logical coordinate j
//     at physical slot a·j mod dim, a the first integer at or above
//     dim·(√5−1)/2 coprime with dim (layout.go; one worker and dims
//     below 64 keep the identity). Corpora number their features by
//     popularity, so the hottest coordinates would sit side by side, 16
//     to a float32 cache line, and workers writing different ones would
//     still pass the line between cores; the golden multiple spreads
//     them apart. The engine reads an engine-owned copy of the CSR
//     indices with each row in its own order, so every dot and update
//     does the same arithmetic in the same order. Logical order
//     is restored at the engine's boundary only: Snapshot (and so
//     PublishTo and Train's results) gathers, Load (and so
//     Config.InitWeights) scatters. The DC base, SVRG's snapshot,
//     column scales, accumulators and shift are all read in physical
//     order and need no translation;
//   - what importance sampling adds is paid once, at construction, and
//     split across the engine's workers: newEngine makes one pass over
//     the rows, in row ranges of about equal nnz, that writes the
//     relabelled index copy, the float32 value copy and each row's
//     ‖x_i‖² (from which come L_i and grad's ‖x_i‖); and each worker
//     builds its own alias table, step scales and sequence. Every table is the serial
//     construction's bit for bit.
//
// The update loop itself (Loop, Rows) is the only one in the repository:
// the streaming trainer (internal/stream) turns each worker's block
// draws into the same (rows, sequence, scales) triple over its window's
// CSR and runs it through the same Loop.Run.
//
// RunEpochDelayed runs the same update on a deterministic delayed
// executor, the perturbed-iterate model of the paper's Section 3 (Mania
// et al. 2017): the workers take turns on the calling goroutine, one
// position each per round, and each update's write waits in a ring of τ
// pending writes, so its gradient is read exactly τ writes before it is
// applied. It uses the bound kernel in either precision, the one model
// vector and the loop's DC strength, histograms and |ℓ'| record, and
// allocates nothing per epoch once its ring exists. P threads racing in
// lockstep are P workers at τ = P − 1; unlike threads, two runs at a seed
// are bitwise equal, which is what the ψ and τ sweeps of
// internal/experiments need. No product path runs it.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
	"github.com/isasgd/isasgd/internal/sampling"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/sparse"
	"github.com/isasgd/isasgd/internal/xrand"
)

// Engine runs epochs of (possibly asynchronous, possibly importance-
// sampled, possibly variance-reduced) SGD over fixed worker shards.
// Construct with NewSGD, NewISSGD, NewASGD, NewISASGD or NewSVRG.
type Engine struct {
	ds   *dataset.Dataset
	obj  objective.Objective
	m    model.Params
	numT int

	// The data path, bound once at construction: the update loop with
	// its kernel, and the CSR view it reads. x is the dataset's own CSR
	// with its indices in the model's physical order (lay; a copy when
	// the layout relabels); x.Val32 is its float32 value copy when the
	// model stores float32. The loop slices rows out of x directly and
	// pays nothing per update for the precision or the layout.
	loop Loop
	x    Rows

	// lay maps logical coordinates to the model's physical slots, and
	// phys is the physical buffer Snapshot gathers from and Load
	// scatters into; both are untouched on the identity layout.
	lay  layout
	phys []float64

	shards   [][]int            // per worker: global row ids
	scales   [][]float64        // per worker, per local position: step multiplier 1/(N_a·p_ai); nil = all ones
	seqs     [][]int32          // per worker: pre-generated local-position sequence, uniform or importance-sampled
	rngs     []*xrand.Rand      // per worker
	samplers []sampling.Sampler // per worker; retained for sequence regeneration

	shuffleSeq  bool // reuse one sequence, reshuffled per epoch (paper's Sec 4.2 trick)
	partialBias bool // mix distribution with uniform (Needell et al. 2014)
	decision    balance.Decision

	// Gradient-norm importance (ISOptions.Importance "grad"), nil
	// otherwise: norms[i] = ‖x_i‖, computed once, and grads[i] the |ℓ'|
	// the loop last recorded on row i (-1 until it is first updated).
	// Each is indexed by row id; a row is written only by the worker
	// whose shard holds it.
	norms []float64
	grads []float32

	// Sparse SVRG (NewSVRG), nil otherwise: colScale[j] is D_j = n/n_j
	// for the n_j rows that hold coordinate j (0 where none does), snap
	// the epoch's snapshot s̃, and acc[t] worker t's sum of
	// ℓ'(s̃·x_i)·x_i over its shard, all three indexed by physical slot
	// (lay). The loop holds the anchors and µ·D.
	colScale []float64
	snap     []float64
	acc      [][]float64

	// Mid-training publication (PublishTo): every pubEvery completed
	// epochs the engine cuts a model snapshot into pub, so live serving
	// consumers see the weights advance while training continues.
	pub        *snapshot.Store
	pubEvery   int
	epochsDone int
	itersDone  int64
	pubRejects int64
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

// Instrument attaches training telemetry: each worker's histogram
// records the staleness τ of its updates (see Loop.Instrument). Must be
// called before RunEpoch; nil detaches.
func (e *Engine) Instrument(ti *obs.TrainInstruments) { e.loop.Instrument(ti, e.numT) }

// SetDC sets the DC-ASGD delay-compensation strength λ: every update's
// direction d gains λ·d²·(w_now − w_base) per coordinate, against the
// epoch-start model as base. 0 detaches. Every model kind runs it; SVRG
// refuses it. Must not be called while RunEpoch is in flight.
func (e *Engine) SetDC(lambda float64) error {
	if err := adaptive.CheckNonNegative("DCLambda", lambda); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if e.colScale != nil && lambda > 0 {
		return fmt.Errorf("core: delay compensation does not apply to SVRG")
	}
	e.loop.dcLambda = lambda
	return nil
}

// Decision reports how the dataset order was prepared (shuffle or
// head–tail) and its shard Φ statistics. Meaningful for IS-ASGD; zero
// for the other constructions.
func (e *Engine) Decision() balance.Decision { return e.decision }

// Threads returns the worker count.
func (e *Engine) Threads() int { return e.numT }

// Snapshot copies the current model into dst in logical coordinate
// order, reallocating dst only when its capacity falls short. Under a
// relabelling layout it gathers through a buffer the engine reuses, so
// it must not run concurrently with itself or with Load.
func (e *Engine) Snapshot(dst []float64) []float64 {
	if e.lay.identity() {
		return e.m.Snapshot(dst)
	}
	e.phys = e.m.Snapshot(e.phys)
	if cap(dst) < len(e.phys) {
		dst = make([]float64, len(e.phys))
	}
	dst = dst[:len(e.phys)]
	e.lay.gather(dst, e.phys)
	return dst
}

// Load overwrites the model with w, given in logical coordinate order
// (len(w) must be the model's dimension). It must not run concurrently
// with RunEpoch, Snapshot or itself.
func (e *Engine) Load(w []float64) {
	if e.lay.identity() {
		e.m.Load(w)
		return
	}
	if cap(e.phys) < len(w) {
		e.phys = make([]float64, len(w))
	}
	e.phys = e.phys[:len(w)]
	e.lay.scatter(e.phys, w)
	e.m.Load(e.phys)
}

// ItersPerEpoch returns the number of updates one epoch performs (the
// dataset size, split across workers).
func (e *Engine) ItersPerEpoch() int64 {
	var n int64
	for _, s := range e.shards {
		n += int64(len(s))
	}
	return n
}

// newEngine validates the arguments and builds what every construction
// shares: the bound loop, the rows it reads, and the workers' rngs. The
// rows come from one pass over the CSR, split across the engine's
// workers (prepRows), which writes the relabelled index copy, the
// float32 value copy when the model stores float32 and the CSR has none
// cached yet (it is then installed as the CSR's EnsureVal32 cache), and,
// when normSq is non-nil, each row's ‖x_i‖² into normSq.
func newEngine(ds *dataset.Dataset, obj objective.Objective, m model.Params, threads int, seed uint64, normSq []float64) (*Engine, error) {
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
	e := &Engine{ds: ds, obj: obj, m: m, numT: threads, lay: newLayout(ds.Dim(), threads)}
	e.loop.Bind(m, obj)
	e.x = Rows{IndPtr: ds.X.IndPtr, Idx: ds.X.Idx, Val: ds.X.Val, Y: ds.Y}
	var slot []int32
	if !e.lay.identity() {
		slot = e.lay.slots()
		e.x.Idx = make([]int32, len(ds.X.Idx))
	}
	var conv bool
	if e.loop.kern32 != nil {
		if e.x.Val32 = ds.X.Val32(); e.x.Val32 == nil {
			conv, e.x.Val32 = true, make([]float32, len(ds.X.Val))
		}
	}
	if slot != nil || conv || normSq != nil {
		together(threads, func(t int) { e.prepRows(t, ds.X, slot, conv, normSq) })
	}
	if conv {
		ds.X.SetVal32(e.x.Val32)
	}
	sm := xrand.NewSplitMix64(seed)
	e.rngs = make([]*xrand.Rand, threads)
	for t := range e.rngs {
		e.rngs[t] = xrand.New(sm.Uint64())
	}
	return e, nil
}

// prepRows is worker t's share of newEngine's pass: the t-th of numT
// row ranges of about equal nnz. Row by row, it writes each index's
// physical slot into e.x.Idx when slot is set, each value's float32
// into e.x.Val32 when conv is, and ‖x_i‖² into normSq when that is
// non-nil, summed in sparse.Vector.NormSq's order (it is that call).
func (e *Engine) prepRows(t int, x *sparse.CSR, slot []int32, conv bool, normSq []float64) {
	for i, hi := rowStart(x.IndPtr, t, e.numT), rowStart(x.IndPtr, t+1, e.numT); i < hi; i++ {
		row, lo := x.Row(i), x.IndPtr[i]
		if slot != nil {
			idx := e.x.Idx[lo : lo+int64(len(row.Idx))]
			for k, j := range row.Idx {
				idx[k] = slot[j]
			}
		}
		if conv {
			val := e.x.Val32[lo : lo+int64(len(row.Val))]
			for k, v := range row.Val {
				val[k] = float32(v)
			}
		}
		if normSq != nil {
			normSq[i] = row.NormSq()
		}
	}
}

// rowStart returns the first row of the t-th of parts row ranges that
// split indPtr's rows by nnz: the first row at or past t/parts of the
// non-zeros (the row count at t = parts).
func rowStart(indPtr []int64, t, parts int) int {
	rows := len(indPtr) - 1
	if t == parts {
		return rows
	}
	i, _ := slices.BinarySearch(indPtr[:rows], indPtr[rows]*int64(t)/int64(parts))
	return i
}

// together runs f(0), …, f(n−1) at once, f(0) on the calling goroutine
// and the others on goroutines of their own, and returns when all have;
// at n = 1 it starts no goroutine.
func together(n int, f func(t int)) {
	var wg sync.WaitGroup
	for t := 1; t < n; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(t)
		}()
	}
	f(0)
	wg.Wait()
}

// NewSGD builds a sequential uniform-sampling engine (plain SGD, Eq. 3).
func NewSGD(ds *dataset.Dataset, obj objective.Objective, m model.Params, seed uint64) (*Engine, error) {
	return NewASGD(ds, obj, m, 1, seed)
}

// NewASGD builds the Hogwild baseline: the (shuffled) dataset is split
// into contiguous shards and each worker draws uniformly from its own
// shard with unit step scale.
func NewASGD(ds *dataset.Dataset, obj objective.Objective, m model.Params, threads int, seed uint64) (*Engine, error) {
	e, err := newEngine(ds, obj, m, threads, seed, nil)
	if err != nil {
		return nil, err
	}
	order := e.rngs[0].Perm(ds.N())
	e.shards = balance.Split(order, e.Threads())
	// Uniform draws with unit step scale: no scales. The positions are
	// pre-generated one epoch at a time, so the worker loop looks ahead
	// along them as it does on the IS arm; a refill makes one rng.Intn
	// call per position, in order, so the run is the one that drawing
	// each position inside the loop gives (TestPinnedWeightsUniform).
	e.seqs = make([][]int32, e.Threads())
	e.samplers = make([]sampling.Sampler, e.Threads())
	for t, shard := range e.shards {
		if len(shard) > 0 {
			e.samplers[t] = sampling.NewUniform(len(shard))
			e.seqs[t] = sampling.Sequence(e.samplers[t], e.rngs[t], len(shard))
		}
	}
	return e, nil
}

// NewSVRG builds SVRG (Johnson & Zhang 2013) on the uniform ASGD
// construction: one worker is SVRG-SGD, more are SVRG-ASGD, the paper's
// Algorithm 1. It runs the sparse form of Mania et al.'s KroMagnon and
// Leblond et al.'s ASAGA: each epoch opens with svrgEpoch, and each
// update writes
//
//	w_j −= λ·((ℓ'(w·x_i) − ℓ'(s̃·x_i))·x_ij + µ_j·D_j + reg'(w_j))
//
// on the row's support only. A uniform draw holds coordinate j with
// probability n_j/n = 1/D_j, so the µ term's mean is µ_j: the update is
// unbiased for the strict form's, which adds the dense µ to all d
// coordinates, at O(nnz) instead of O(d).
func NewSVRG(ds *dataset.Dataset, obj objective.Objective, m model.Params, threads int, seed uint64) (*Engine, error) {
	e, err := NewASGD(ds, obj, m, threads, seed)
	if err != nil {
		return nil, err
	}
	e.colScale = make([]float64, ds.Dim())
	for _, j := range e.x.Idx {
		e.colScale[j]++
	}
	for j, nj := range e.colScale {
		if nj > 0 {
			e.colScale[j] = float64(ds.N()) / nj
		}
	}
	e.acc = make([][]float64, e.numT)
	for t := range e.acc {
		e.acc[t] = make([]float64, ds.Dim())
	}
	e.loop.anchor, e.loop.shift = make([]float64, ds.N()), make([]float64, ds.Dim())
	return e, nil
}

// svrgEpoch opens an SVRG epoch (Algorithm 1 lines 4–6): it snapshots
// s̃, runs one pass over the workers' shards, on goroutines when
// parallel, that stores each row's ℓ'(s̃·x_i) as its anchor and sums
// ℓ'(s̃·x_i)·x_i into the worker's accumulator, and sets the loop's
// shift to µ_j·D_j with µ = (1/n)·Σ_i ℓ'(s̃·x_i)·x_i. The accumulators
// are summed in worker order, so the shift is the same either way.
func (e *Engine) svrgEpoch(parallel bool) {
	e.snap = e.m.Snapshot(e.snap)
	if parallel && e.numT > 1 {
		together(e.numT, e.svrgPass)
	} else {
		for t := range e.shards {
			e.svrgPass(t)
		}
	}
	inv := 1 / float64(e.ds.N())
	for j, d := range e.colScale {
		sum := 0.0
		for _, acc := range e.acc {
			sum += acc[j]
		}
		e.loop.shift[j] = sum * inv * d
	}
}

// svrgPass is worker t's share of svrgEpoch. It reads the engine's
// rows, whose indices are in the physical order s̃ and the accumulators
// are.
func (e *Engine) svrgPass(t int) {
	acc, x := e.acc[t], &e.x
	clear(acc)
	for _, i := range e.shards[t] {
		lo, hi := x.IndPtr[i], x.IndPtr[i+1]
		row := sparse.Vector{Idx: x.Idx[lo:hi], Val: x.Val[lo:hi]}
		g := e.obj.Deriv(row.Dot(e.snap), e.ds.Y[i])
		e.loop.anchor[i] = g
		row.AddTo(acc, g)
	}
}

// ISOptions configures the importance-sampling constructions.
type ISOptions struct {
	// Mode selects shard preparation: the zero value shuffles, and
	// balance.ForceBalance applies Algorithm 3 (the reproduction's arm).
	Mode balance.Mode
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
	// Importance selects the sampling weights: "" or "bound" keeps the
	// static Lipschitz bounds of Eq. 12 for the whole run; "grad" starts
	// from them and, after every epoch, reweighs each worker's shard by
	// the Eq.-11 gradient norms |ℓ'(z_i)|·‖x_i‖ its updates recorded
	// (adaptive.GradWeights, always partially biased). The distribution
	// then changes every epoch, so "grad" regenerates the sequences even
	// with ShuffleSeq.
	Importance string
}

// NewISSGD builds sequential importance-sampled SGD (Algorithm 2): one
// worker holding the whole dataset, alias sampling from the global
// distribution P of Eq. 12, step scaled by 1/(n·p_i) (Eq. 8).
func NewISSGD(ds *dataset.Dataset, obj objective.Objective, m model.Params, seed uint64, shuffleSeq bool) (*Engine, error) {
	return NewISASGDOpts(ds, obj, m, 1, ISOptions{Seed: seed, ShuffleSeq: shuffleSeq})
}

// NewISASGD builds the paper's Algorithm 4: plan the dataset order (a
// seeded shuffle, or Algorithm 3's head–tail order for mode
// balance.ForceBalance), split it into contiguous worker shards, build
// each worker's local distribution P_tid from its local Lipschitz
// constants, pre-generate local sample sequences, and scale steps by
// 1/(N_a·p_ai).
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
	mode balance.Mode, seed uint64, shuffleSeq bool) (*Engine, error) {
	return NewISASGDOpts(ds, obj, m, threads, ISOptions{Mode: mode, Seed: seed, ShuffleSeq: shuffleSeq})
}

// NewISASGDOpts is NewISASGD with the full option set.
func NewISASGDOpts(ds *dataset.Dataset, obj objective.Objective, m model.Params, threads int, opts ISOptions) (*Engine, error) {
	// The pass leaves each row's ‖x_i‖² in l; Lipschitz then makes it
	// L_i, which is objective.Weights(ds.X, obj) bit for bit.
	l := make([]float64, ds.N())
	e, err := newEngine(ds, obj, m, threads, opts.Seed, l)
	if err != nil {
		return nil, err
	}
	e.shuffleSeq = opts.ShuffleSeq
	e.partialBias = opts.PartialBias
	switch opts.Importance {
	case "", "bound":
	case "grad":
		e.norms = make([]float64, ds.N())
		e.grads = make([]float32, ds.N())
		for i, sq := range l {
			e.norms[i] = math.Sqrt(sq) // sparse.Vector.Norm2
			e.grads[i] = -1
		}
	default:
		return nil, fmt.Errorf("core: unknown importance %q (want bound or grad)", opts.Importance)
	}
	for i, sq := range l {
		l[i] = obj.Lipschitz(sq)
	}
	if e.partialBias {
		l = PartialBiasWeights(l)
	}
	order, dec := balance.Plan(l, e.Threads(), opts.Mode, e.rngs[0])
	e.decision = dec
	e.shards = balance.Split(order, e.Threads())
	if err := e.buildSamplers(l); err != nil {
		return nil, err
	}
	return e, nil
}

// PartialBiasWeights returns 0.5·(L̄ + L_i), which normalizes to the
// partially biased distribution ½(1/n + L_i/ΣL): the weights an engine
// with ISOptions.PartialBias samples and plans its shards by.
func PartialBiasWeights(l []float64) []float64 {
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

// buildSamplers builds each worker's local distribution, step-scale
// table and sample sequence from global weights l (indexed by row id),
// each on its worker's goroutine (together): worker t touches only its
// own slots and rngs[t], so the tables are the serial loop's bit for
// bit, and the error is the lowest failing worker's.
func (e *Engine) buildSamplers(l []float64) error {
	e.scales = make([][]float64, e.Threads())
	e.seqs = make([][]int32, e.Threads())
	e.samplers = make([]sampling.Sampler, e.Threads())
	errs := make([]error, e.Threads())
	together(e.Threads(), func(t int) {
		shard := e.shards[t]
		if len(shard) == 0 {
			return
		}
		localL := make([]float64, len(shard))
		for k, i := range shard {
			localL[k] = l[i]
		}
		errs[t] = e.setWeights(t, localL)
	})
	return cmp.Or(errs...)
}

// setWeights installs worker t's distribution from w, its shard's
// weights by local position: the alias sampler, the step scales
// 1/(N_a·p_ai), written over w, and a sequence drawn from it. A worker
// that already has an alias table rebuilds it in place (only worker t
// draws from it, and not while it is being reweighed), so a
// gradient-norm reweigh allocates nothing.
func (e *Engine) setWeights(t int, w []float64) error {
	al, ok := e.samplers[t].(*sampling.Alias)
	if !ok {
		al = new(sampling.Alias)
	}
	if err := al.Rebuild(w); err != nil {
		return fmt.Errorf("core: worker %d sampler: %w", t, err)
	}
	e.samplers[t] = al
	na := float64(len(w))
	for k := range w {
		p := al.Prob(k)
		if p <= 0 {
			// A zero-weight sample is never drawn; its scale is moot.
			w[k] = 0
			continue
		}
		w[k] = 1 / (na * p)
	}
	e.scales[t] = w
	if e.seqs[t] == nil {
		e.seqs[t] = make([]int32, len(w))
	}
	sampling.SequenceInto(e.seqs[t], al, e.rngs[t])
	return nil
}

// RunEpoch performs one epoch: every worker executes len(shard) updates
// with the given step size λ, concurrently when Threads() > 1. It returns
// the number of updates applied.
func (e *Engine) RunEpoch(step float64) int64 {
	if e.loop.dcLambda > 0 {
		e.refreshDCBase()
	}
	if e.colScale != nil {
		e.svrgEpoch(true)
	}
	if e.Threads() == 1 {
		e.runWorker(0, step)
		e.endOfEpoch(0)
		return e.finishEpoch()
	}
	together(e.numT, func(t int) {
		e.runWorker(t, step)
		e.endOfEpoch(t)
	})
	return e.finishEpoch()
}

// RunEpochDelayed performs one epoch on the deterministic delayed
// executor instead of on goroutines: the Threads() workers run their
// sequences round-robin on the calling goroutine, and every update's
// gradient is read tau writes before it is applied (see runDelayed).
// The sequence refresh, the counters and publication are RunEpoch's.
// Two engines built alike give bitwise-equal runs at any tau, and at
// tau = 0 a 1-worker engine runs exactly RunEpoch's updates. P threads
// racing in lockstep correspond to P workers at tau = P − 1. It returns
// the number of updates the epoch performed.
func (e *Engine) RunEpochDelayed(step float64, tau int) int64 {
	if tau < 0 {
		panic(fmt.Sprintf("core: negative delay %d", tau))
	}
	if e.loop.dcLambda > 0 {
		e.refreshDCBase()
	}
	if e.colScale != nil {
		e.svrgEpoch(false)
	}
	if l := &e.loop; l.kern32 != nil {
		runDelayed(l, &e.x, e.x.Val32, l.kern32, e.shards, e.seqs, e.scales, step, e.grads, tau)
	} else {
		runDelayed[float64](l, &e.x, e.x.Val, l.kern, e.shards, e.seqs, e.scales, step, e.grads, tau)
	}
	for t := range e.shards {
		e.endOfEpoch(t)
	}
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
		if v := e.pub.Publish(e.epochsDone, e.itersDone, e.Snapshot); v == nil {
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
// buffer is reused, so steady-state epochs stay allocation-free.
func (e *Engine) refreshDCBase() {
	e.loop.dcBase = e.m.Snapshot(e.loop.dcBase)
}

// runWorker runs worker t's share of one epoch (Algorithm 4 lines
// 13–15): its pre-generated sequence over its shard, with its step
// scales. It is shared by every construction; the differences are in
// the prepared shard/sequence/scale tables and, for SVRG, the loop's
// anchors and shift.
func (e *Engine) runWorker(t int, step float64) {
	shard := e.shards[t]
	var scale []float64
	if e.scales != nil {
		scale = e.scales[t]
	}
	e.loop.Run(t, &e.x, shard, e.seqs[t][:len(shard)], scale, step, e.grads)
}

// endOfEpoch refreshes worker t's sample sequence: regenerated in place
// from the sampler (the default, and always on the uniform arm), or
// shuffled in place when the paper's Section-4.2 approximation is
// enabled. Both paths reuse the existing buffer, keeping steady-state
// epochs allocation-free. Under gradient-norm importance the worker
// first reweighs its shard from the |ℓ'| its updates recorded, over the
// old scale table, and draws the sequence from the new distribution.
func (e *Engine) endOfEpoch(t int) {
	if e.seqs[t] == nil {
		return
	}
	if e.grads != nil {
		w := adaptive.GradWeights(e.scales[t], e.shards[t], e.norms, e.grads)
		if err := e.setWeights(t, w); err != nil {
			panic(err) // GradWeights' weights are positive and finite
		}
		return
	}
	if e.shuffleSeq {
		sampling.ShuffleSequence(e.seqs[t], e.rngs[t])
		return
	}
	sampling.SequenceInto(e.seqs[t], e.samplers[t], e.rngs[t])
}
