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
// model, the staleness histograms and their update clock, and the DC-ASGD
// strength. The batch engine and the streaming trainer each hold one and
// hand every worker's updates to Run.
type Loop struct {
	obj objective.Objective
	// Exactly one kernel is set: kern32 when the model stores float32
	// (the loop then reads Rows.Val32), kern otherwise.
	kern   kernel.Kernel
	kern32 kernel.Kernel32

	// staleH are the per-worker τ histograms (Instrument); nil keeps the
	// plain body free of clock traffic.
	staleH []*obs.Histogram

	// ck is the one logical update clock behind the histograms: it ticks
	// once per applied update while they are attached, and is left alone
	// otherwise.
	ck adaptive.Clock

	// dcLambda is the DC-ASGD strength λ (0 = off) and dcBase the base it
	// corrects toward, indexed like the kernel indexes the model.
	dcLambda float64
	dcBase   []float64

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
	l.staleH = nil
	if ti != nil {
		l.staleH = ti.WorkerStaleness(workers)
	}
}

// Run applies worker w's updates: for each position p of seq, in order,
// one step on row rows[p] of x scaled by step·scale[p] (scale nil: all
// ones). When grads is non-nil (indexed like x's rows), each applied
// update stores its row's |ℓ'(z)| there — the gradient-norm importance
// signal; the caller keeps each row's slot owned by one worker.
func (l *Loop) Run(w int, x *Rows, rows []int, seq []int32, scale []float64, step float64, grads []float32) {
	if l.kern32 != nil {
		runRows(l, w, x, x.Val32, l.kern32, rows, seq, scale, step, grads)
		return
	}
	runRows[float64](l, w, x, x.Val, l.kern, rows, seq, scale, step, grads)
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
	rows []int, seq []int32, scale []float64, step float64, grads []float32) {
	var (
		ptr    = x.IndPtr
		idx    = x.Idx
		nnz    = int64(len(idx))
		y      = x.Y
		obj    = l.obj
		ck     = &l.ck
		n      = len(seq)
		lambda = l.dcLambda
		base   = l.dcBase
		sh     *obs.Histogram
		sink   uint64
	)
	if l.staleH != nil {
		sh = l.staleH[w]
	}
	// The probing body runs under delay compensation, under SVRG, and
	// when the staleness histograms and the gradient record are both
	// wanted; the recording body is Step split around the store of |ℓ'|.
	anchor, shift := l.anchor, l.shift
	probe := lambda > 0 || shift != nil || (sh != nil && grads != nil)
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
			// The step is decomposed around its derivative: the write-back
			// goes through UpdateShift under SVRG, or through UpdateDC,
			// whose DC-ASGD correction λ·d²·(w_now − w_base) cancels the
			// drift since the base (a plain Update when λ is 0). The
			// clock is touched only for the histograms, so SVRG and DC
			// runs without them share no cache line.
			var begin int64
			if sh != nil {
				begin = ck.Now()
			}
			g := obj.Deriv(k.Dot(ri, rv), y[i])
			if shift != nil {
				k.UpdateShift(ri, rv, g-anchor[i], s, shift)
			} else {
				k.UpdateDC(ri, rv, g, s, lambda, base)
			}
			if sh != nil {
				sh.Observe(ck.Tick() - begin - 1)
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
}

// pending is one update the delayed executor has read but not yet
// written: worker w's row, the derivative g and step s read off the
// model, and how many writes had been applied when it was read.
type pending struct {
	w, row int
	g, s   float64
	begin  int
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
// Each write counts as one update, so the staleness the τ histograms
// record is the injected delay (0, 1, …, tau−1 while the ring fills, tau
// after); the DC base, the |ℓ'| record and the SVRG write-back act
// exactly as in runRows' probing body. At tau = 0 with one worker the
// arithmetic is runRows' (Step is Update of Deriv of Dot), bit for bit.
func runDelayed[V float32 | float64](l *Loop, x *Rows, vals []V, k kernel.Ops[V],
	rows [][]int, seqs [][]int32, scales [][]float64, step float64, grads []float32, tau int) {
	if cap(l.ring) <= tau {
		l.ring = make([]pending, tau+1)
	}
	var (
		ring     = l.ring[:tau+1]
		ptr, idx = x.IndPtr, x.Idx
		rounds   int
		reads    int
		writes   int
	)
	write := func(p pending) {
		lo, hi := ptr[p.row], ptr[p.row+1]
		if l.shift != nil {
			k.UpdateShift(idx[lo:hi], vals[lo:hi], p.g-l.anchor[p.row], p.s, l.shift)
		} else {
			k.UpdateDC(idx[lo:hi], vals[lo:hi], p.g, p.s, l.dcLambda, l.dcBase)
		}
		if l.staleH != nil {
			l.staleH[p.w].Observe(int64(writes - p.begin))
		}
		writes++
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
			p := pending{w: w, row: i, s: step, begin: writes}
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
}
