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
//   - Reader: a chunked LibSVM reader that yields fixed-size row blocks
//     from an io.Reader without loading the full file, reusing
//     dataset.AppendLibSVMLine so it accepts exactly what the whole-file
//     parser accepts;
//   - ISState: an online importance state holding per-row Lipschitz
//     estimates in a bounded reservoir, periodically rebuilding a
//     sampling.Alias table so the hot sampling path stays O(1);
//   - Trainer: core-style multi-worker asynchronous updates over a
//     sliding window of blocks, with per-block shard assignment reusing
//     internal/balance's importance balancing.
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

// Block is one chunk of parsed rows. Start is the global index of
// Rows[0] within the stream (blank and comment lines do not consume
// indices), so Start+k identifies Rows[k] stream-wide. Rows from a Reader
// are capacity-clipped windows into two flat arrays the block owns.
type Block struct {
	Start int64
	Rows  []sparse.Vector
	Y     []float64

	// val32 holds per-row float32 views of the feature values, backed by
	// one flat array; built once by EnsureVal32 for the f32 training path.
	val32 [][]float32
}

// Len returns the number of rows in the block.
func (b *Block) Len() int { return len(b.Rows) }

// Val returns row k's float64 feature values — the f64 counterpart of
// Val32, for code written once over the value type.
func (b *Block) Val(k int) []float64 { return b.Rows[k].Val }

// EnsureVal32 materializes the block's float32 feature values (one
// conversion per row, all rows sharing a single backing array). Idempotent;
// call during ingest, before the update workers run — the first call is
// not safe to race with Val32 readers.
func (b *Block) EnsureVal32() {
	if b.val32 != nil {
		return
	}
	nnz := 0
	for _, v := range b.Rows {
		nnz += v.NNZ()
	}
	flat := make([]float32, nnz)
	b.val32 = make([][]float32, len(b.Rows))
	off := 0
	for i, v := range b.Rows {
		dst := flat[off : off+len(v.Val)]
		sparse.ToF32(dst, v.Val)
		b.val32[i] = dst
		off += len(v.Val)
	}
}

// Val32 returns row k's float32 feature values. EnsureVal32 must have
// run first.
func (b *Block) Val32(k int) []float32 {
	if b.val32 == nil {
		panic("stream: Block.Val32 before EnsureVal32")
	}
	return b.val32[k]
}

// Weights returns the per-row importance weights L_i (Eq. 12 numerators)
// under obj, the streaming analog of objective.Weights.
func (b *Block) Weights(obj objective.Objective) []float64 {
	l := make([]float64, len(b.Rows))
	for i, v := range b.Rows {
		l[i] = obj.Lipschitz(v.NormSq())
	}
	return l
}

// Dataset materializes the block as a dataset with the given fixed
// dimensionality. Rows with features at or beyond dim fail validation;
// streaming callers fix dim up front (the model cannot grow mid-stream).
func (b *Block) Dataset(name string, dim int) (*dataset.Dataset, error) {
	return dataset.FromRows(name, dim, b.Rows, b.Y)
}

// Reader yields fixed-size row blocks from a LibSVM text stream. It
// keeps only the current block in memory; the underlying source is read
// once, line by line, so arbitrarily large inputs stream through in
// O(blockSize) space. Lines are parsed with dataset.AppendLibSVMLine, the
// same parser ParseLibSVM uses, so a stream concatenated back together
// is row-for-row identical to a whole-file parse. A block costs a fixed
// handful of allocations however many rows it holds.
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

	// Per-block scratch, reused: where each row ends in the block's
	// arenas, and the labels until the block's size is known.
	ends []int
	ys   []float64
	// nnzHint sizes the next block's arenas from the last one's fill.
	nnzHint int
}

// NewReader returns a chunked reader over r. blockSize <= 0 selects
// DefaultBlockSize.
func NewReader(r io.Reader, name string, blockSize int) *Reader {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	return &Reader{name: name, blockSize: blockSize, sc: sc, maxIdx: -1}
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
	var (
		idx  = make([]int32, 0, r.nnzHint)
		val  = make([]float64, 0, r.nnzHint)
		ends = r.ends[:0]
		ys   = r.ys[:0]
	)
	for len(ends) < r.blockSize {
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
		ends = append(ends, len(idx))
		ys = append(ys, y)
	}
	r.ends, r.ys = ends, ys
	if len(ends) == 0 {
		return nil, io.EOF
	}
	// Slice the rows only now: the arenas may have moved while they grew.
	b := &Block{Start: r.rows, Rows: make([]sparse.Vector, len(ends)), Y: append([]float64(nil), ys...)}
	lo := 0
	for i, hi := range ends {
		b.Rows[i] = sparse.Vector{Idx: idx[lo:hi:hi], Val: val[lo:hi:hi]}
		if hi > lo && idx[hi-1] > r.maxIdx {
			r.maxIdx = idx[hi-1]
		}
		lo = hi
	}
	r.nnzHint = len(idx) + len(idx)/8
	r.rows += int64(len(b.Rows))
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
		for i, v := range b.Rows {
			z := kernel.DotClamped(w, v.Idx, v.Val)
			l := obj.Loss(z, b.Y[i])
			loss += l
			lossSq += l * l
			if obj.Predict(z) != b.Y[i] {
				errs++
			}
			n++
		}
	}
	if n == 0 {
		return 0, 0, 0, 0, nil
	}
	fn := float64(n)
	return loss/fn + obj.Reg().Penalty(w), math.Sqrt(lossSq / fn), float64(errs) / fn, n, nil
}
