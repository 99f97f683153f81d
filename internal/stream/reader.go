// Package stream implements bounded-memory streaming ingestion and
// online importance-sampled training — the production counterpart of the
// paper's offline recipe.
//
// Algorithm 2/4 assume the whole dataset is resident: Lipschitz
// constants are computed in one pass, the alias distribution is built
// once, and sample sequences are pre-generated. A service training on
// data that arrives as a stream and is too large to hold at once needs
// the same machinery maintained incrementally (Katharopoulos & Fleuret
// 2018; Alain et al. 2015). This package provides:
//
//   - Reader: a chunked LibSVM reader that yields fixed-size row blocks,
//     each a CSR, from an io.Reader without loading the full file,
//     reusing dataset.AppendLibSVMLine so it accepts exactly what the
//     whole-file parser accepts; blocks handed back by Trainer.Run are
//     refilled in place;
//   - ISState: an online importance state holding per-row Lipschitz
//     estimates in a bounded reservoir, periodically rebuilding a
//     sampling.Alias table so the hot sampling path stays O(1);
//   - Trainer: multi-worker asynchronous updates over a sliding window
//     of blocks, each block cut into worker shards of a seeded shuffle
//     as the batch engine cuts its data.
//
// The window is one CSR arena: a block's rows are appended at
// admission, without the features the model cannot hold, and evicted
// rows are compacted away in amortised O(block). A row's ref is its
// position in ingest order, so a draw finds its window row by
// subtraction. The alias table changes only at a block boundary, so a
// worker's draws do not depend on the model: before its updates each
// worker turns its quota of draws into a plan of (window row, step
// scale) entries, and the plan runs through core.Loop — the batch
// engine's update loop, the only one in the repository.
//
// The alias-rebuild cadence is the central trade-off: rebuilding after
// every observation keeps the sampling distribution exact but costs
// O(reservoir) per row; rebuilding every k observations amortizes that
// to O(reservoir/k) at the price of sampling from a distribution up to
// k rows stale. The default (one rebuild per ingested block) matches
// the granularity at which the window changes.
package stream

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/kernel"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/sparse"
)

// DefaultBlockSize is the row-block granularity when the caller does not
// choose one.
const DefaultBlockSize = 1024

// Block is one chunk of parsed rows, as a CSR: row k is X.Row(k) with
// label Y[k], its indices strictly rising as the parser requires. Start is the global index of row 0 within the stream
// (blank and comment lines do not consume indices), so Start+k
// identifies row k stream-wide. X.Dim is the reader's MaxDim once the
// block was parsed.
type Block struct {
	Start int64
	X     sparse.CSR
	Y     []float64
}

// Len returns the number of rows in the block.
func (b *Block) Len() int { return len(b.Y) }

// Reader yields fixed-size row blocks from a LibSVM text stream. It
// keeps only the current block in memory; the underlying source is read
// once, line by line, so arbitrarily large inputs stream through in
// O(blockSize) space. Lines are parsed with dataset.AppendLibSVMLine, the
// same parser ParseLibSVM uses, so a stream concatenated back together
// is row-for-row identical to a whole-file parse. A new block costs a
// fixed handful of allocations however many rows it holds, and a block
// handed back for reuse (Trainer.Run does so once it has ingested it)
// is refilled in place, which allocates nothing.
//
// A Reader is not safe for concurrent use; Trainer.Run hands it to its
// read-ahead goroutine and gives it back when Run returns.
type Reader struct {
	name      string
	blockSize int
	sc        *bufio.Scanner
	lineNo    int
	rows      int64
	maxIdx    int32
	err       error
	done      bool

	// free holds the blocks handed back by recycle, for Next to refill.
	// It is a channel because the blocks come back from Run's training
	// goroutine while the reading goroutine is inside Next.
	free chan *Block
	// nnzHint sizes a new block's arenas from the last block's fill.
	nnzHint int
}

// poolDepth is how many handed-back blocks a Reader keeps. Under Run at
// most readAhead+2 blocks are in flight — the queued ones, the one being
// parsed and the one being ingested — so that many are enough for every
// block to come back and the reader to stop allocating.
const poolDepth = readAhead + 2

// NewReader returns a chunked reader over r. blockSize <= 0 selects
// DefaultBlockSize.
func NewReader(r io.Reader, name string, blockSize int) *Reader {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	return &Reader{name: name, blockSize: blockSize, sc: sc, maxIdx: -1, free: make(chan *Block, poolDepth)}
}

// recycle hands b back for a later Next to refill; the caller must not
// touch b afterwards. Safe to call while another goroutine is in Next.
func (r *Reader) recycle(b *Block) {
	select {
	case r.free <- b:
	default:
	}
}

// Next returns the next block of up to blockSize rows. It returns
// io.EOF (and a nil block) when the stream is exhausted, or the first
// parse/read error encountered; errors are sticky.
func (r *Reader) Next() (*Block, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.done {
		return nil, io.EOF
	}
	var b *Block
	select {
	case b = <-r.free:
	default:
		b = &Block{
			X: sparse.CSR{
				IndPtr: make([]int64, 0, r.blockSize+1),
				Idx:    make([]int32, 0, r.nnzHint),
				Val:    make([]float64, 0, r.nnzHint),
			},
			Y: make([]float64, 0, r.blockSize),
		}
	}
	var (
		ptr = append(b.X.IndPtr[:0], 0)
		idx = b.X.Idx[:0]
		val = b.X.Val[:0]
		ys  = b.Y[:0]
	)
	for len(ys) < r.blockSize {
		if !r.sc.Scan() {
			if err := r.sc.Err(); err != nil {
				r.err = fmt.Errorf("libsvm %q: %w", r.name, err)
				return nil, r.err
			}
			r.done = true
			break
		}
		r.lineNo++
		var (
			y   float64
			ok  bool
			err error
		)
		idx, val, y, ok, err = dataset.AppendLibSVMLine(r.name, r.lineNo, r.sc.Bytes(), idx, val)
		if err != nil {
			r.err = err
			return nil, err
		}
		if !ok {
			continue
		}
		// Indices rise within a row, so its last one is its largest.
		if hi := len(idx); int64(hi) > ptr[len(ptr)-1] && idx[hi-1] > r.maxIdx {
			r.maxIdx = idx[hi-1]
		}
		ptr = append(ptr, int64(len(idx)))
		ys = append(ys, y)
	}
	if len(ys) == 0 {
		r.recycle(b)
		return nil, io.EOF
	}
	b.Start, b.Y = r.rows, ys
	b.X = sparse.CSR{Dim: r.MaxDim(), IndPtr: ptr, Idx: idx, Val: val}
	r.nnzHint = len(idx) + len(idx)/8
	r.rows += int64(len(ys))
	return b, nil
}

// Rows returns the number of rows yielded so far.
func (r *Reader) Rows() int64 { return r.rows }

// MaxDim returns the dimensionality implied by the largest feature index
// seen so far (0 if no features were seen yet).
func (r *Reader) MaxDim() int { return int(r.maxIdx) + 1 }

// Evaluate streams a LibSVM source through blocks of blockSize rows and
// returns the aggregate objective / RMSE / error rate of the weight
// vector w, in O(blockSize) space. Rows whose features fall outside w
// contribute their in-range coordinates only (out-of-vocabulary features
// score 0, matching the serving path). It is the bounded-memory analog
// of metrics.Evaluate for corpora too large to materialize.
func Evaluate(r io.Reader, name string, blockSize int, obj objective.Objective, w []float64) (obj2, rmse, errRate float64, n int64, err error) {
	rd := NewReader(r, name, blockSize)
	var loss, lossSq float64
	var errs int64
	for {
		b, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, 0, 0, err
		}
		for i, y := range b.Y {
			v := b.X.Row(i)
			z := kernel.DotClamped(w, v.Idx, v.Val)
			l := obj.Loss(z, y)
			loss += l
			lossSq += l * l
			if obj.Predict(z) != y {
				errs++
			}
			n++
		}
		rd.recycle(b)
	}
	if n == 0 {
		return 0, 0, 0, 0, nil
	}
	fn := float64(n)
	return loss/fn + obj.Reg().Penalty(w), math.Sqrt(lossSq / fn), float64(errs) / fn, n, nil
}
