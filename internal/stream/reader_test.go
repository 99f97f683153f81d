package stream

import (
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/objective"
)

const sampleLibSVM = `# header comment
+1 1:0.5 3:1.5
-1 2:2

+1 1:1 2:1 3:1 # trailing comment
-1 3:0.25
+1 2:4
-1 1:0.125 3:2
`

// drain reads every block, failing the test on a non-EOF error.
func drain(t *testing.T, r *Reader) []*Block {
	t.Helper()
	var blocks []*Block
	for {
		b, err := r.Next()
		if err == io.EOF {
			return blocks
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		blocks = append(blocks, b)
	}
}

func TestReaderBlocksMatchWholeFileParse(t *testing.T) {
	want, err := dataset.ParseLibSVM(strings.NewReader(sampleLibSVM), "whole", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, blockSize := range []int{1, 2, 3, 4, 100} {
		r := NewReader(strings.NewReader(sampleLibSVM), "chunked", blockSize)
		blocks := drain(t, r)
		var rows int
		for _, b := range blocks {
			if b.Len() == 0 {
				t.Fatalf("blockSize %d: empty block yielded", blockSize)
			}
			if b.Len() > blockSize {
				t.Fatalf("blockSize %d: block has %d rows", blockSize, b.Len())
			}
			if b.Start != int64(rows) {
				t.Fatalf("blockSize %d: block Start = %d, want %d", blockSize, b.Start, rows)
			}
			for i := range b.Y {
				v := b.X.Row(i)
				g := rows + i
				wr := want.X.Row(g)
				if b.Y[i] != want.Y[g] {
					t.Fatalf("blockSize %d row %d: label %g != %g", blockSize, g, b.Y[i], want.Y[g])
				}
				if len(v.Idx) != len(wr.Idx) {
					t.Fatalf("blockSize %d row %d: nnz %d != %d", blockSize, g, len(v.Idx), len(wr.Idx))
				}
				for k := range v.Idx {
					if v.Idx[k] != wr.Idx[k] || v.Val[k] != wr.Val[k] {
						t.Fatalf("blockSize %d row %d: entry %d differs", blockSize, g, k)
					}
				}
			}
			rows += b.Len()
		}
		if rows != want.N() {
			t.Fatalf("blockSize %d: streamed %d rows, whole-file parse has %d", blockSize, rows, want.N())
		}
		if r.Rows() != int64(want.N()) {
			t.Fatalf("blockSize %d: Rows() = %d, want %d", blockSize, r.Rows(), want.N())
		}
		if r.MaxDim() != want.Dim() {
			t.Fatalf("blockSize %d: MaxDim() = %d, want %d", blockSize, r.MaxDim(), want.Dim())
		}
	}
}

func TestReaderSplitReads(t *testing.T) {
	// Lines arriving one byte per Read must parse identically: the reader
	// may never treat a read boundary as a row boundary.
	want := drain(t, NewReader(strings.NewReader(sampleLibSVM), "w", 3))
	got := drain(t, NewReader(iotest.OneByteReader(strings.NewReader(sampleLibSVM)), "g", 3))
	if len(got) != len(want) {
		t.Fatalf("block count %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Len() != want[i].Len() || got[i].Start != want[i].Start {
			t.Fatalf("block %d shape differs", i)
		}
	}
}

func TestReaderErrorsSticky(t *testing.T) {
	r := NewReader(strings.NewReader("+1 1:1\nbogus-label 1:1\n+1 2:2\n"), "bad", 1)
	if _, err := r.Next(); err != nil {
		t.Fatalf("first block should parse, got %v", err)
	}
	_, err := r.Next()
	if err == nil {
		t.Fatal("expected parse error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should name line 2, got %v", err)
	}
	if _, err2 := r.Next(); err2 != err {
		t.Fatalf("errors must be sticky: got %v then %v", err, err2)
	}
}

func TestReaderRejectsNonFiniteLabels(t *testing.T) {
	// The chunked path never runs Dataset.Validate, so the line parser
	// itself must reject what the batch path rejects there: a NaN or Inf
	// label would otherwise poison every weight it touches.
	for _, in := range []string{"nan 1:1\n", "NaN 1:1\n", "+inf 1:1\n", "-Inf 2:2\n"} {
		r := NewReader(strings.NewReader(in), "nf", 4)
		if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "non-finite label") {
			t.Fatalf("input %q: want non-finite label error, got %v", in, err)
		}
	}
}

func TestReaderEmptyInput(t *testing.T) {
	for _, in := range []string{"", "\n\n", "# only comments\n# more\n"} {
		r := NewReader(strings.NewReader(in), "empty", 4)
		if b, err := r.Next(); err != io.EOF {
			t.Fatalf("input %q: want io.EOF, got block %v err %v", in, b, err)
		}
	}
}

// TestBlockDatasetAndWeights checks that a block's CSR is a valid
// matrix whose importance weights are those of the same rows parsed as a
// whole-file dataset.
func TestBlockDatasetAndWeights(t *testing.T) {
	r := NewReader(strings.NewReader(sampleLibSVM), "b", 100)
	blocks := drain(t, r)
	if len(blocks) != 1 {
		t.Fatalf("want 1 block, got %d", len(blocks))
	}
	b := blocks[0]
	if err := b.X.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := dataset.ParseLibSVM(strings.NewReader(sampleLibSVM), "whole", 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.X.Dim != d.Dim() {
		t.Fatalf("block Dim %d, want %d", b.X.Dim, d.Dim())
	}
	obj := objective.LogisticL1{Eta: 1e-4}
	want := objective.Weights(d.X, obj)
	got := objective.Weights(&b.X, obj)
	if len(got) != len(want) {
		t.Fatalf("weights length %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("weight %d: %g != %g", i, got[i], want[i])
		}
	}
}

func TestStreamEvaluateMatchesBatchEvaluate(t *testing.T) {
	d, err := dataset.ParseLibSVM(strings.NewReader(sampleLibSVM), "eval", 0)
	if err != nil {
		t.Fatal(err)
	}
	obj := objective.LogisticL1{Eta: 1e-4}
	w := make([]float64, d.Dim())
	for j := range w {
		w[j] = 0.25 * float64(j+1)
	}
	want := metrics.Evaluate(d, obj, w, 1)
	for _, blockSize := range []int{1, 2, 100} {
		gotObj, gotRMSE, gotErr, n, err := Evaluate(strings.NewReader(sampleLibSVM), "eval", blockSize, obj, w)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(d.N()) {
			t.Fatalf("blockSize %d: n = %d, want %d", blockSize, n, d.N())
		}
		if diff := gotObj - want.Obj; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("blockSize %d: obj %g != %g", blockSize, gotObj, want.Obj)
		}
		if diff := gotRMSE - want.RMSE; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("blockSize %d: rmse %g != %g", blockSize, gotRMSE, want.RMSE)
		}
		if gotErr != want.ErrRate {
			t.Fatalf("blockSize %d: err rate %g != %g", blockSize, gotErr, want.ErrRate)
		}
	}
}
