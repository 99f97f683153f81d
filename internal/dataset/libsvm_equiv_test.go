package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/isasgd/isasgd/internal/sparse"
	"github.com/isasgd/isasgd/internal/xrand"
)

// referenceParseLibSVMLine is the string-based line parser the byte
// parser replaced, kept as the executable specification: strings.Fields
// for the fields, strconv for every number. AppendLibSVMLine must accept
// exactly the lines it accepts and produce the same bits.
func referenceParseLibSVMLine(name string, lineNo int, line string) (v sparse.Vector, y float64, ok bool, err error) {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return sparse.Vector{}, 0, false, nil
	}
	y, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return sparse.Vector{}, 0, false, fmt.Errorf("libsvm %q line %d: bad label %q: %w", name, lineNo, fields[0], err)
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return sparse.Vector{}, 0, false, fmt.Errorf("libsvm %q line %d: non-finite label %q", name, lineNo, fields[0])
	}
	prev := int32(-1)
	for _, f := range fields[1:] {
		colon := strings.IndexByte(f, ':')
		if colon <= 0 {
			return sparse.Vector{}, 0, false, fmt.Errorf("libsvm %q line %d: bad feature %q", name, lineNo, f)
		}
		idx64, err := strconv.ParseInt(f[:colon], 10, 32)
		if err != nil || idx64 < 1 {
			return sparse.Vector{}, 0, false, fmt.Errorf("libsvm %q line %d: bad index %q", name, lineNo, f[:colon])
		}
		val, err := strconv.ParseFloat(f[colon+1:], 64)
		if err != nil {
			return sparse.Vector{}, 0, false, fmt.Errorf("libsvm %q line %d: bad value %q: %w", name, lineNo, f[colon+1:], err)
		}
		j := int32(idx64 - 1)
		if j <= prev {
			return sparse.Vector{}, 0, false, fmt.Errorf("libsvm %q line %d: indices not strictly increasing at %d", name, lineNo, idx64)
		}
		if val == 0 {
			prev = j
			continue
		}
		v.Idx = append(v.Idx, j)
		v.Val = append(v.Val, val)
		prev = j
	}
	return v, y, true, nil
}

// checkLineAgainstReference parses line with both parsers, the byte
// parser appending behind a sentinel row so that arena handling is
// checked too, and fails on any difference in (idx, val bits, y bits,
// ok) or in the error.
func checkLineAgainstReference(t *testing.T, line string) {
	t.Helper()
	wantV, wantY, wantOK, wantErr := referenceParseLibSVMLine("ref", 7, line)
	idx, val, y, ok, err := AppendLibSVMLine("ref", 7, []byte(line), []int32{42}, []float64{4.2})
	if len(idx) < 1 || len(idx) != len(val) || idx[0] != 42 || val[0] != 4.2 {
		t.Fatalf("%q: arenas damaged: idx %v val %v", line, idx, val)
	}
	idx, val = idx[1:], val[1:]
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%q: error %v, reference %v", line, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("%q: error text %q, reference %q", line, err, wantErr)
		}
		if len(idx) != 0 || ok {
			t.Fatalf("%q: failed parse left %d entries behind, ok=%v", line, len(idx), ok)
		}
		return
	}
	if ok != wantOK || math.Float64bits(y) != math.Float64bits(wantY) {
		t.Fatalf("%q: (y, ok) = (%v, %v), reference (%v, %v)", line, y, ok, wantY, wantOK)
	}
	if len(idx) != len(wantV.Idx) {
		t.Fatalf("%q: %d entries, reference %d", line, len(idx), len(wantV.Idx))
	}
	for k := range idx {
		if idx[k] != wantV.Idx[k] || math.Float64bits(val[k]) != math.Float64bits(wantV.Val[k]) {
			t.Fatalf("%q entry %d: (%d, %x), reference (%d, %x)", line, k,
				idx[k], math.Float64bits(val[k]), wantV.Idx[k], math.Float64bits(wantV.Val[k]))
		}
	}
}

// parserEdgeLines are the inputs where the digit fast paths hand over to
// strconv, plus the tokenizer's corners.
var parserEdgeLines = append([]string{
	"", " ", "\t", "# only a comment", "1", "+1", "-1", "-0", "+0 1:-0", "0 1:0", "1 1:0 2:0.0 3:-0.000",
	"+1 1:0.5 3:1.5", "-1 2:2 # trailing comment", "1 1:1#2:2", "1 # 1:x",
	"1 1:1e-3", "1 1:1E+5", "1 1:1e400", "1 1:-1e400", "1e400 1:1", "1 1:1e-400", "1 1:4.9e-324",
	"1 1:0x1p-2", "0x1p-2 1:1", "1 1:1_0", "1 1:0x1_0p0",
	"inf 1:1", "-Inf 1:1", "nan 1:1", "NaN", "infinity", "1 1:inf", "1 1:-Infinity", "1 1:nan", "1 1:+NaN",
	"1 0:1", "1 -1:1", "1 +1:1", "1 +0:1", "1 007:1", "1 2147483647:1", "1 2147483648:1", "1 4294967297:1",
	"1 999999999:1", "1 1000000000:1", "1 99999999999999999999:1", "1 1_0:1",
	"1 a:b:c", "1 1:2:3", "1 :1", "1 1:", "1 1", "1 :", "1 1:.", "1 1:+", "1 1:-", "1 1:+.", "1 1:..", "1 1:1.2.3",
	"1 1:.5", "1 1:5.", "1 1:+.5", "1 1:-5.", "1 1:00012.5000", "1 1:--1", "1 1:1-",
	"1 1:1 1:1", "1 2:1 1:1", "1 1:0 1:1", "1 2:0 1:1", "1 3:1 5:0 5:1",
	"1\t1:1\t2:2", "1 1:1 \t ", "  1   1:1  ", "1 1:1\r", "1\v1:1\f2:2", "1 1:1\r\n",
	"1\u20281:1", "1\u00a01:1", "1 1:1\u30002:2", "1 1:1\u0085", "1\u16801:1\u202f2:2", "1 1:1\xa0", "1 1:1\xc2", "\xe2\x80 1:1",
	"1 1\xe2\x80\xa8:1", "1 1:1\xe2\x80\xa8", "1 1\u00e9:1",
	"x 1:1", "1 x:1", "1 1:x", "no-label 1:1", "1,1:1",
	// mantissas at and past what the exact paths take
	"1 1:9007199254740991", "1 1:9007199254740992", "1 1:9007199254740993", "1 1:9007199254740995",
	"1 1:18446744073709551615", "1 1:18446744073709551616", "1 1:9999999999999999999", "1 1:10000000000000000000",
	"1 1:0.14445591641150382", "1 1:-0.003025763776968439", "1 1:0.30000000000000004", "1 1:0.1", "1 1:0.2", "1 1:0.3",
	"1 1:1.7976931348623157", "1 1:2.2250738585072014", "1 1:4.35", "1 1:0.000000000000000000000000001",
	"1 1:0.0000000000000000000000000001", "1 1:0.000000000000000000000000000123456789",
	"1 1:123456789012345678.9", "1 1:1234567890123456789.0", "1 1:12345678901234567890",
	"1 1:0.5000000000000000000", "1 1:1.00000000000000011102230246251565404236316680908203125",
	"1 1:1.00000000000000011102230246251565404236316680908203124", "1 1:9007199254740993.0", "1 1:4503599627370497.5",
	"1 1:0.9999999999999999", "1 1:0.99999999999999994", "1 1:0.99999999999999995", "1 1:00000000000000000000000001",
	"12345678901234567 1:1", "0.1 1:1",
	// more than 19 digits, at most 19 of them after the leading zeros
	"1 1:0.000001234567890123456789", "1 1:-0.000009999999999999999999", "1 1:000000001234567890123456789",
	"1 1:0000000.001234567890123456789", "1 1:0.0000012345678901234567890", "1 1:0.000000000000000000000000001234",
	"0.000001234567890123456789 1:1",
}, tokenizerCornerLines()...)

// tokenizerCornerLines are the corners of the cursor pass: fraction
// digits on either side of a multiple of the 8-digit step, a byte that
// is not a digit at each position of an 8-byte window, values that end
// at the end of the line, and mantissas at 2^53 ± 1 on either side of
// the exact float64 powers of ten (10^22).
func tokenizerCornerLines() (lines []string) {
	const digits = "73205080756887729352"
	for _, n := range []int{7, 8, 9, 15, 16, 17} {
		v := "0." + digits[:n]
		lines = append(lines, "1 1:"+v, "1 1:-"+v+" 2:1", "1 1:"+v+"#", "-"+v+" 1:1", v, "1 1:"+v+"\u00a02:2")
	}
	for _, c := range []string{"e", ":", ".", "#", "\xa0", "\x00"} {
		for p := 0; p < 8; p++ {
			v := "0." + digits[:p] + c + digits[p:16]
			lines = append(lines, "1 1:"+v, "1 1:"+v+" 2:1", "1 1:1"+digits[:p]+c+digits[p:8], v+" 1:1")
		}
	}
	for _, m := range []string{"9007199254740991", "9007199254740992", "9007199254740993"} {
		for _, frac := range []int{0, 22, 23} {
			d := strings.Repeat("0", max(0, frac+1-len(m))) + m
			v := d[:len(d)-frac]
			if frac > 0 {
				v += "." + d[len(d)-frac:]
			}
			lines = append(lines, "1 1:"+v, "1 1:-"+v+" 2:1", v+" 1:1")
		}
	}
	return lines
}

func TestByteParserMatchesReference(t *testing.T) {
	for _, line := range parserEdgeLines {
		checkLineAgainstReference(t, line)
	}
}

// TestDigitRun checks the 8-byte digit scan with every byte value at
// every position of the window: the run's length, and the run's value
// as appendDigits converts it, against strconv.
func TestDigitRun(t *testing.T) {
	for p := 0; p < 8; p++ {
		for c := 0; c < 256; c++ {
			line := []byte("31415926;")
			line[p] = byte(c)
			run := p
			if c >= '0' && c <= '9' {
				run = 8
			}
			if got := digitRun(binary.LittleEndian.Uint64(line)); got != run {
				t.Fatalf("digitRun(%q) = %d, want %d", line[:8], got, run)
			}
			want, _ := strconv.ParseUint("0"+string(line[:run]), 10, 64)
			if got, end := appendDigits(line, 0, 7); got != 7*pow10u[run]+want || end != run {
				t.Fatalf("appendDigits(%q) = %d, %d", line, got, end)
			}
		}
	}
}

// TestDecimalFastPathExact drives the strconv-free conversion over random
// mantissas and scales — dense around 2^53, the uint64 limit and halfway
// cases — against strconv.ParseFloat: on its own, where it must take
// every plain decimal of at most 19 significant digits (a fast path that
// silently hands everything to strconv would be as exact, only slower),
// and through the line parser as a label and as a value.
func TestDecimalFastPathExact(t *testing.T) {
	rng := xrand.New(11)
	for n := 0; n < 400000; n++ {
		mant := rng.Uint64() >> (rng.Uint64() % 64)
		switch n % 4 {
		case 1: // a 53-bit odd integer plus half an ulp: ties and near-ties
			mant = (mant|1)<<(rng.Uint64()%11) + rng.Uint64()%3 - 1
		case 2:
			mant = 1<<53 + rng.Uint64()%4096 - 2048
		}
		digits := strconv.FormatUint(mant, 10)
		plain := len(digits) <= 19
		frac := int(rng.Uint64() % 30)
		for len(digits) <= frac {
			digits = "0" + digits
		}
		s := digits[:len(digits)-frac] + "." + digits[len(digits)-frac:]
		if n%2 == 0 {
			s = "-" + s
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		got, end, ok := scanDecimal([]byte(s), 0)
		if ok != (plain && frac < len(pow5)) || ok && end != len(s) {
			t.Fatalf("scanDecimal(%q): ok %v, end %d", s, ok, end)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("scanDecimal(%q) = %x, strconv %x", s, math.Float64bits(got), math.Float64bits(want))
		}
		if n%8 < 2 {
			checkLineAgainstReference(t, s+" 1:"+s+" 2:"+s)
		}
	}
}

// FuzzByteParserMatchesReference is the differential fuzz of the byte
// parser against the string-based specification, line by line.
func FuzzByteParserMatchesReference(f *testing.F) {
	for _, line := range parserEdgeLines {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, line := range strings.Split(input, "\n") {
			checkLineAgainstReference(t, line)
		}
	})
}

// referenceWriteLibSVM is the fmt-based writer WriteLibSVM replaced,
// kept as its executable specification.
func referenceWriteLibSVM(d *Dataset) string {
	var sb strings.Builder
	for i := 0; i < d.N(); i++ {
		fmt.Fprintf(&sb, "%g", d.Y[i])
		row := d.X.Row(i)
		for k, j := range row.Idx {
			fmt.Fprintf(&sb, " %d:%g", j+1, row.Val[k])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestWriteLibSVMMatchesFmt: WriteLibSVM writes byte for byte what
// formatting every label and value with %g writes, on random datasets
// whose numbers are negative, tiny, huge, in exponent form, negative
// zero and non-finite, over empty rows and indices up to the int32 limit.
func TestWriteLibSVMMatchesFmt(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, -2.5, 1e21, 1e20, 123456789, 1e-7, 1e-5, -1e-300,
		5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 1.0 / 3, 2.5e-8, 6.02214076e23,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := xrand.New(11)
	num := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return rng.NormFloat64()
		case 2:
			return math.Ldexp(rng.NormFloat64(), rng.Intn(2100)-1050)
		default:
			return float64(rng.Intn(2001) - 1000)
		}
	}
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		x := &sparse.CSR{Dim: math.MaxInt32, IndPtr: []int64{0}}
		y := make([]float64, n)
		for i := range y {
			y[i] = num()
			j := int32(-1)
			for nnz := rng.Intn(6); nnz > 0; nnz-- {
				j += 1 + int32(rng.Intn(1<<rng.Intn(31)))
				if j < 0 || j == math.MaxInt32 {
					break
				}
				x.Idx = append(x.Idx, j)
				x.Val = append(x.Val, num())
			}
			x.IndPtr = append(x.IndPtr, int64(len(x.Idx)))
		}
		d := &Dataset{Name: "w", X: x, Y: y}
		var sb strings.Builder
		if err := WriteLibSVM(&sb, d); err != nil {
			t.Fatal(err)
		}
		if got, want := sb.String(), referenceWriteLibSVM(d); got != want {
			t.Fatalf("trial %d: WriteLibSVM wrote\n%q\nfmt writes\n%q", trial, got, want)
		}
	}
}
