package core

import (
	"math"
	"sync/atomic"

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/kernel"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/obs"
)

// Rows is the CSR view the update loop reads rows from: row i is
// Idx/Val[IndPtr[i]:IndPtr[i+1]] with label Y[i]. Val32 is the float32
// copy of Val, indexed like it; only the precision of the bound kernel
// is read. Every index must lie inside the model.
type Rows struct {
	IndPtr []int64
	Idx    []int32
	Val    []float64
	Val32  []float32
	Y      []float64
}

// Loop is the state of the one update loop: the kernel bound to the
// model, the update clock, the adaptive policy, the staleness histograms
// and the shed counter. The batch engine and the streaming trainer each
// hold one and hand every worker's updates to Run.
type Loop struct {
	obj objective.Objective
	// Exactly one kernel is set: kern32 when the model stores float32
	// (the loop then reads Rows.Val32), kern otherwise.
	kern   kernel.Kernel
	kern32 kernel.Kernel32

	// instr and staleH are the per-worker τ histograms (Instrument); nil
	// keeps the plain body free of clock traffic.
	instr  *obs.TrainInstruments
	staleH []*obs.Histogram

	// ck is the one logical update clock: it ticks once per applied
	// update whenever something reads it — the τ histograms, the adaptive
	// probe, or both.
	ck adaptive.Clock

	// pol is the adaptive policy (zero = disabled) and dcBase the
	// delay-compensation base its DCLambda corrects toward, indexed like
	// the kernel indexes the model; shed counts the updates it dropped.
	pol    adaptive.Policy
	dcBase []float64
	shed   atomic.Int64

	// touched receives, once per Run, the fold of the values the loop
	// touched ahead of use, so the compiler cannot drop those loads as
	// dead. Nothing reads it.
	touched atomic.Uint64

	// ring holds the delayed executor's pending writes (runDelayed); it
	// grows to the largest τ asked for and is reused after that.
	ring []pending

	// anchor and shift are sparse SVRG's epoch state, nil for every other
	// algorithm: anchor[i] is ℓ'(s̃·x_i) at the epoch's snapshot s̃,
	// indexed like the rows, and shift[j] is µ_j·D_j (Engine.svrgEpoch).
	// With shift set, every update takes the probing body and writes the
	// derivative difference ℓ'(w·x_i) − anchor[i] through UpdateShift.
	anchor, shift []float64
}

// Bind selects the devirtualized kernel for m once: the model's
// concrete type is fixed for its lifetime, so the specialization chosen
// here serves every update.
func (l *Loop) Bind(m model.Params, obj objective.Objective) {
	l.obj = obj
	switch m.(type) {
	case *model.Racy32, *model.Atomic32:
		l.kern, l.kern32 = nil, kernel.New32(m, obj)
	default:
		l.kern, l.kern32 = kernel.New(m, obj), nil
	}
}

// Instrument attaches training telemetry for workers update workers:
// every update is bracketed by the update clock, so each worker's
// histogram records the perturbed-iterate staleness τ — how many
// concurrent updates landed between this update's read and its write,
// the quantity the paper's SME analysis bounds. Single-worker runs
// observe exactly 0. nil detaches.
func (l *Loop) Instrument(ti *obs.TrainInstruments, workers int) {
	l.instr, l.staleH = ti, nil
	if ti != nil {
		l.staleH = ti.WorkerStaleness(workers)
	}
}

// SetAdaptive installs an adaptive-update policy: steps attenuated by
// 1/(1+c·τ) on the measured per-update staleness, updates shed over a
// staleness bound, and DC-ASGD delay compensation against the base the
// owner keeps in dcBase. A zero policy detaches.
func (l *Loop) SetAdaptive(p adaptive.Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	l.pol = p
	return nil
}

// Clock returns the loop's update clock, so that a caller can stand in
// for workers the loop does not run: each Tick is one foreign update.
func (l *Loop) Clock() *adaptive.Clock { return &l.ck }

// Shed returns the cumulative number of updates dropped because their
// measured staleness exceeded the policy's bound.
func (l *Loop) Shed() int64 { return l.shed.Load() }

// Run applies worker w's updates: for each position p of seq, in order,
// one step on row rows[p] of x scaled by step·scale[p] (scale nil: all
// ones). When grads is non-nil (indexed like x's rows), each applied
// update stores its row's |ℓ'(z)| there — the gradient-norm importance
// signal; the caller keeps each row's slot owned by one worker. It
// returns how many updates the policy shed.
func (l *Loop) Run(w int, x *Rows, rows []int, seq []int32, scale []float64, step float64, grads []float32) int64 {
	if l.kern32 != nil {
		return runRows(l, w, x, x.Val32, l.kern32, rows, seq, scale, step, grads)
	}
	return runRows[float64](l, w, x, x.Val, l.kern, rows, seq, scale, step, grads)
}

// Lookahead distances of the update loop, in updates. Each update's row
// is a chain of dependent cache misses, seq[it] → rows[pos] →
// IndPtr[i] → Idx/Val[lo], Y[i] and scale[pos], and the atomic model's
// CAS acts as a fence, so the CPU cannot overlap one row's misses with
// the previous update by itself. Resolving IndPtr aheadPtr updates early
// and the row's first Idx/Val line, label and step scale aheadRow updates
// early puts that chain's loads in flight before the row is needed.
//
// Measured on batch_sparse (throughput_per_s, 2 vCPU, alternating
// pairs): (16, 8) beat the loop without lookahead in 10 of 10 pairs at a
// median ×1.26, beat (8, 4) in 3 of 3 and (32, 16) in 7 of 8 (median
// ×1.05), and was within noise of (16, 4). Also touching the model words
// of the row 4 ahead measured ×1.00, ×0.86 and ×1.01 against touching
// the row only, so the loop leaves the model alone.
const (
	aheadPtr = 16
	aheadRow = 8
)

// runRows is the update loop of every trainer, written once over the
// feature value type: k and vals are the bound kernel and x's value
// array in that precision. The update arithmetic itself lives in
// internal/kernel — the loop walks the position sequence, resolves each
// position's row and step scale, and hands the fused update to the
// kernel. Because the whole sequence is known before the loop starts,
// it first touches the rows aheadPtr and aheadRow updates ahead (see
// their comment), before the body switch, so the plain, instrumented,
// recording and probing bodies and both precisions all get it.
func runRows[V float32 | float64](l *Loop, w int, x *Rows, vals []V, k kernel.Ops[V],
	rows []int, seq []int32, scale []float64, step float64, grads []float32) int64 {
	var (
		ptr  = x.IndPtr
		idx  = x.Idx
		nnz  = int64(len(idx))
		y    = x.Y
		obj  = l.obj
		ck   = &l.ck
		n    = len(seq)
		pol  = l.pol
		base = l.dcBase
		sh   *obs.Histogram
		shed int64
		sink uint64
	)
	if l.staleH != nil {
		sh = l.staleH[w]
	}
	// The probing body runs under an adaptive policy, under SVRG, and
	// when the staleness histograms and the gradient record are both
	// wanted; the recording body is Step split around the store of |ℓ'|.
	anchor, shift := l.anchor, l.shift
	probe := pol.Enabled() || shift != nil || (sh != nil && grads != nil)
	for it, p := range seq {
		if a := it + aheadPtr; a < n {
			sink += uint64(ptr[rows[seq[a]]])
		}
		if a := it + aheadRow; a < n {
			q := int(seq[a])
			j := rows[q]
			// An empty row at the end of the CSR starts at len(idx).
			if lo := ptr[j]; lo < nnz {
				sink += uint64(idx[lo]) + math.Float64bits(float64(vals[lo]))
			}
			sink += math.Float64bits(y[j])
			if scale != nil {
				sink += math.Float64bits(scale[q])
			}
		}
		pos := int(p)
		i := rows[pos]
		lo, hi := ptr[i], ptr[i+1]
		ri, rv := idx[lo:hi], vals[lo:hi]
		s := step
		if scale != nil {
			s *= scale[pos]
		}
		switch {
		case probe:
			// The step is decomposed around the probes: the dot and
			// derivative are computed first so the measured staleness τ —
			// logical updates other workers applied between this update's
			// gradient read and its write — can shed the update or
			// attenuate its step by 1/(1+c·τ), and the write-back goes
			// through UpdateDC so the DC-ASGD correction
			// λ·d²·(w_now − w_base) cancels the drift since the base (a
			// plain Update when DCLambda is 0), or through UpdateShift
			// under SVRG.
			begin := ck.Now()
			z := k.Dot(ri, rv)
			g := obj.Deriv(z, y[i])
			tau := ck.Now() - begin
			if pol.Shed(tau) {
				shed++
				continue
			}
			if shift != nil {
				k.UpdateShift(ri, rv, g-anchor[i], s*pol.Scale(tau), shift)
			} else {
				k.UpdateDC(ri, rv, g, s*pol.Scale(tau), pol.DCLambda, base)
			}
			ck.Tick()
			if sh != nil {
				sh.Observe(tau)
			}
			if grads != nil {
				grads[i] = float32(math.Abs(g))
			}
		case grads != nil:
			g := obj.Deriv(k.Dot(ri, rv), y[i])
			grads[i] = float32(math.Abs(g))
			k.Update(ri, rv, g, s)
		case sh != nil:
			begin := ck.Now()
			k.Step(ri, rv, y[i], s)
			sh.Observe(ck.Tick() - begin - 1)
		default:
			k.Step(ri, rv, y[i], s)
		}
	}
	l.touched.Store(sink)
	if shed > 0 {
		l.shed.Add(shed)
		l.instr.ShedDone(shed)
	}
	return shed
}

// pending is one update the delayed executor has read but not yet
// written: worker w's row, the derivative g and step s read off the
// model, and the clock when it was read.
type pending struct {
	w, row int
	g, s   float64
	begin  int64
}

// runDelayed is the deterministic delayed executor, the perturbed-iterate
// model run by the real update loop: every worker's sequence (rows,
// seqs and scales indexed by worker, as runRows takes one) runs on the
// calling goroutine, round-robin, one position per worker per round. The
// read phase is k.Dot then obj.Deriv on the one model vector; the result
// joins a ring of the tau pending writes before it, and the write phase
// applies the oldest one after each read. So, once tau updates are
// pending, every update's gradient is read exactly tau writes before it
// is applied; the ring drains at the end, the barrier of a threaded
// epoch.
//
// The write phase ticks the clock, so the staleness it measures is the
// injected delay (0, 1, …, tau−1 while the ring fills, tau after), and
// the policy, the τ histograms, the DC base, the |ℓ'| record and the
// SVRG write-back act on it exactly as in runRows' probing body. A shed
// write ticks too: it keeps its slot in the schedule, so the delay every
// later write reads is still the injected one. At tau = 0 with one worker the arithmetic is
// runRows' (Step is Update of Deriv of Dot), bit for bit.
func runDelayed[V float32 | float64](l *Loop, x *Rows, vals []V, k kernel.Ops[V],
	rows [][]int, seqs [][]int32, scales [][]float64, step float64, grads []float32, tau int) {
	if cap(l.ring) <= tau {
		l.ring = make([]pending, tau+1)
	}
	var (
		ring     = l.ring[:tau+1]
		ptr, idx = x.IndPtr, x.Idx
		ck       = &l.ck
		pol      = l.pol
		rounds   int
		reads    int
		shed     int64
	)
	write := func(p pending) {
		tau := ck.Now() - p.begin
		ck.Tick()
		if pol.Shed(tau) {
			shed++
			return
		}
		lo, hi := ptr[p.row], ptr[p.row+1]
		if l.shift != nil {
			k.UpdateShift(idx[lo:hi], vals[lo:hi], p.g-l.anchor[p.row], p.s*pol.Scale(tau), l.shift)
		} else {
			k.UpdateDC(idx[lo:hi], vals[lo:hi], p.g, p.s*pol.Scale(tau), pol.DCLambda, l.dcBase)
		}
		if l.staleH != nil {
			l.staleH[p.w].Observe(tau)
		}
		if grads != nil {
			grads[p.row] = float32(math.Abs(p.g))
		}
	}
	for _, wr := range rows {
		rounds = max(rounds, len(wr))
	}
	for r := range rounds {
		for w, wr := range rows {
			if r >= len(wr) {
				continue
			}
			pos := int(seqs[w][r])
			i := wr[pos]
			lo, hi := ptr[i], ptr[i+1]
			p := pending{w: w, row: i, s: step, begin: ck.Now()}
			if scales != nil {
				p.s *= scales[w][pos]
			}
			p.g = l.obj.Deriv(k.Dot(idx[lo:hi], vals[lo:hi]), x.Y[i])
			ring[reads%len(ring)] = p
			if reads >= tau {
				write(ring[(reads-tau)%len(ring)])
			}
			reads++
		}
	}
	for j := max(reads-tau, 0); j < reads; j++ {
		write(ring[j%len(ring)])
	}
	if shed > 0 {
		l.shed.Add(shed)
		l.instr.ShedDone(shed)
	}
}
