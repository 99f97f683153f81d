package stream

import (
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/isasgd/isasgd/internal/dataset"
)

// FuzzChunkedReader is the differential fuzz over the two LibSVM
// parsers: arbitrary input — including malformed lines split across
// read-chunk boundaries, which the one-byte reader forces — must never
// panic, and the chunked reader must accept exactly what the whole-file
// parser accepts, yielding row-for-row identical output.
func FuzzChunkedReader(f *testing.F) {
	seeds := []string{
		"",
		"+1 1:0.5 3:1.5\n-1 2:2\n",
		"1 1:1e300\n",
		"# comment only\n",
		"1\n",
		"-1 7:0\n",
		"1 1:0.5 1:0.5\n",       // duplicate index: must error
		"1 2:1 1:1\n",           // decreasing: must error
		"1 999999999999999:1\n", // index overflow
		"1 1:x\n",               // bad value
		"no-label 1:1\n",
		"1 1:1\n\n\n-1 2:2\n# c\n+1 3:3",
		strings.Repeat("1 1:1 2:2 3:3\n", 50),
	}
	for _, s := range seeds {
		f.Add(s, uint8(3))
	}
	f.Fuzz(func(t *testing.T, input string, blockSize uint8) {
		bs := int(blockSize%16) + 1
		whole, wholeErr := dataset.ParseLibSVM(strings.NewReader(input), "whole", 0)

		// One byte per Read forces every line to straddle read boundaries.
		r := NewReader(iotest.OneByteReader(strings.NewReader(input)), "whole", bs)
		var rows int
		var chunkErr error
		for {
			b, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				chunkErr = err
				break
			}
			if b.Len() == 0 || b.Len() > bs {
				t.Fatalf("block of %d rows with blockSize %d", b.Len(), bs)
			}
			if b.Start != int64(rows) {
				t.Fatalf("block Start %d, want %d", b.Start, rows)
			}
			if wholeErr == nil {
				for i := range b.Y {
					v := b.X.Row(i)
					g := rows + i
					if g >= whole.N() {
						t.Fatalf("chunked yields more rows (%d+) than whole-file parse (%d)", g, whole.N())
					}
					wr := whole.X.Row(g)
					if b.Y[i] != whole.Y[g] && !(b.Y[i] != b.Y[i] && whole.Y[g] != whole.Y[g]) {
						t.Fatalf("row %d: label %v != %v", g, b.Y[i], whole.Y[g])
					}
					if len(v.Idx) != len(wr.Idx) {
						t.Fatalf("row %d: nnz %d != %d", g, len(v.Idx), len(wr.Idx))
					}
					for k := range v.Idx {
						if v.Idx[k] != wr.Idx[k] || v.Val[k] != wr.Val[k] {
							t.Fatalf("row %d entry %d: (%d,%v) != (%d,%v)",
								g, k, v.Idx[k], v.Val[k], wr.Idx[k], wr.Val[k])
						}
					}
				}
			}
			rows += b.Len()
		}

		switch {
		case wholeErr == nil && chunkErr != nil:
			t.Fatalf("whole-file parse accepted input but chunked rejected: %v", chunkErr)
		case wholeErr == nil && chunkErr == nil:
			// Note: ParseLibSVM can still reject at the Dataset.Validate
			// stage (e.g. NaN labels) after line parsing succeeded; the
			// chunked reader has no dataset-level validation, so only the
			// row-level agreement above is required. whole is non-nil here.
			if rows != whole.N() {
				t.Fatalf("chunked yields %d rows, whole-file parse %d", rows, whole.N())
			}
			if r.MaxDim() > whole.Dim() {
				t.Fatalf("chunked MaxDim %d > whole-file dim %d", r.MaxDim(), whole.Dim())
			}
		case wholeErr != nil && chunkErr == nil:
			// The whole-file parser rejects some streams only at its final
			// Dataset.Validate (e.g. non-finite labels), a dataset-level
			// check the chunked reader intentionally lacks; line-level
			// rejections must agree exactly.
			if !strings.Contains(wholeErr.Error(), "dataset") {
				t.Fatalf("chunked accepted input the whole-file line parser rejects: %v", wholeErr)
			}
		}
	})
}
