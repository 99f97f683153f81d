package dataset

import (
	"bytes"
	"testing"
)

// BenchmarkAppendLibSVMLine measures the line parser's throughput in
// MB/s on WriteLibSVM's text of a small KDDALike corpus, whose values
// are shortest-form decimals of 16–19 digits — the text the streaming
// benchmark parses, unlike the short values of stream's BenchmarkReader.
func BenchmarkAppendLibSVMLine(b *testing.B) {
	d, err := Synthesize(KDDALike(0.02, 1))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLibSVM(&buf, d); err != nil {
		b.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	var (
		idx []int32
		val []float64
	)
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n, line := range lines {
			if idx, val, _, _, err = AppendLibSVMLine("bench", n+1, line, idx[:0], val[:0]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
