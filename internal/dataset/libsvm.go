package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"unicode"
	"unicode/utf8"

	"github.com/isasgd/isasgd/internal/sparse"
)

// libsvmSpace marks the ASCII bytes that separate LibSVM fields — the
// set strings.Fields splits on.
var libsvmSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// wideSpace returns the encoded width of the white-space rune b starts
// with, or 0. Non-ASCII input is decoded so that the Unicode spaces
// (NBSP, U+2028, ...) separate fields exactly as they do for
// strings.Fields.
func wideSpace(b []byte) int {
	if r, n := utf8.DecodeRune(b); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// skipSpace returns the offset of the first byte at or after i that does
// not belong to a white-space rune.
func skipSpace(line []byte, i int) int {
	for i < len(line) {
		n := 0
		if c := line[i]; c >= utf8.RuneSelf {
			n = wideSpace(line[i:])
		} else if libsvmSpace[c] {
			n = 1
		}
		if n == 0 {
			break
		}
		i += n
	}
	return i
}

// fieldEnd returns the offset of the first white-space rune at or after i.
func fieldEnd(line []byte, i int) int {
	for ; i < len(line); i++ {
		if c := line[i]; c >= utf8.RuneSelf {
			if wideSpace(line[i:]) > 0 {
				break
			}
		} else if libsvmSpace[c] {
			break
		}
	}
	return i
}

// pow5 holds 5^k for every k whose power fits a uint64.
var pow5 = func() (t [28]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = 5 * t[k-1]
	}
	return t
}()

// divPow10 returns mant / 10^k correctly rounded (to nearest, ties to
// even), for mant > 0 and 0 <= k < len(pow5). With both operands shifted
// until their top bits are set, one 128-by-64-bit division yields a
// 63- or 64-bit quotient and the exact remainder, so the 53-bit rounding
// decision is made on exact information — the result is bit-identical to
// strconv.ParseFloat's for the same decimal. The range keeps every
// result a normal float64.
func divPow10(mant uint64, k int) float64 {
	lz := bits.LeadingZeros64(mant)
	m := mant << lz
	lzd := bits.LeadingZeros64(pow5[k])
	// mant/10^k = (q + r/d) · 2^e with d = 5^k << lzd and q in [2^62, 2^64).
	q, r := bits.Div64(m>>1, m<<63, pow5[k]<<lzd)
	e := lzd - lz - k - 63
	shift := 11 - bits.LeadingZeros64(q) // drop to 53 bits
	half := uint64(1) << (shift - 1)
	rem := q & (half<<1 - 1)
	q >>= shift
	if rem > half || rem == half && (r != 0 || q&1 == 1) {
		q++ // a carry out of bit 52 lands in the exponent field below
	}
	return math.Float64frombits(uint64(e+shift+52+1023)<<52 + (q - 1<<52))
}

// parseDecimal converts a plain decimal — [+-]digits[.digits], at most
// 19 digits after the leading zeros — without strconv. Everything else
// (exponents, inf/nan, hex, underscores, longer mantissas, malformed
// text) reports !ok and goes through strconv.ParseFloat, so the accepted
// set and the parsed bits are strconv's.
func parseDecimal(b []byte) (f float64, ok bool) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		i, neg = 1, b[0] == '-'
	}
	var mant uint64 // wraps only past 19 significant digits, rejected below
	first := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	digits, frac := i-first, 0
	if i < len(b) && b[i] == '.' {
		i++
		for first = i; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		frac = i - first
		digits += frac
	}
	if i < len(b) || digits == 0 || frac >= len(pow5) {
		return 0, false
	}
	if digits > 19 {
		// Leading zeros ("0.00123...") carry no weight.
		for _, c := range b {
			if c >= '1' && c <= '9' {
				break
			}
			if c == '0' {
				digits--
			}
		}
		if digits > 19 {
			return 0, false
		}
	}
	if mant != 0 {
		f = divPow10(mant, frac)
	}
	if neg {
		f = -f
	}
	return f, true
}

func parseFloat(b []byte) (float64, error) {
	if f, ok := parseDecimal(b); ok {
		return f, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// parseIndex reads a 1-based feature index: up to nine plain digits
// directly (no int32 overflow possible), anything else through strconv.
func parseIndex(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 9 {
		return strconv.ParseInt(string(b), 10, 32)
	}
	var v int64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return strconv.ParseInt(string(b), 10, 32)
		}
		v = v*10 + int64(d)
	}
	return v, nil
}

// AppendLibSVMLine parses one line of the LibSVM text format
// ("label idx:val idx:val ...", 1-based feature indices, '#' starts a
// comment) and appends the row's non-zeros — indices converted to
// 0-based — to the idx and val arenas, returning the extended arenas and
// the label; the row is the appended tail. ok is false for blank or
// comment-only lines, which carry no sample; then, and on an error, the
// arenas come back at their original length. Errors name the line
// number. line is only read during the call (a bufio.Scanner's Bytes
// will do), and nothing is allocated beyond arena growth.
//
// This is the one line-level parser behind ParseLibSVMLine, the
// whole-file ParseLibSVM and the chunked stream.Reader, so all three
// accept exactly the same inputs and produce the same bits.
func AppendLibSVMLine(name string, lineNo int, line []byte, idx []int32, val []float64) ([]int32, []float64, float64, bool, error) {
	n0 := len(idx)
	idx, val, y, ok, err := appendLine(line, idx, val)
	if err != nil {
		return idx[:n0], val[:n0], 0, false, fmt.Errorf("libsvm %q line %d: %w", name, lineNo, err)
	}
	return idx, val, y, ok, nil
}

// appendLine is AppendLibSVMLine without the error prefix and the arena
// truncation.
func appendLine(line []byte, idx []int32, val []float64) (_ []int32, _ []float64, y float64, ok bool, _ error) {
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	prev := int32(-1)
	for i := skipSpace(line, 0); i < len(line); i = skipSpace(line, i) {
		end := fieldEnd(line, i)
		f := line[i:end]
		i = end
		if !ok { // the first field is the label
			label, err := parseFloat(f)
			if err != nil {
				return idx, val, 0, false, fmt.Errorf("bad label %q: %w", f, err)
			}
			if math.IsNaN(label) || math.IsInf(label, 0) {
				// Rejecting here (not only in Dataset.Validate) keeps the chunked
				// streaming reader — which never materializes a Dataset — in
				// agreement with the whole-file parser: a NaN label must not be
				// trainable through either path.
				return idx, val, 0, false, fmt.Errorf("non-finite label %q", f)
			}
			y, ok = label, true
			continue
		}
		colon := bytes.IndexByte(f, ':')
		if colon <= 0 {
			return idx, val, 0, false, fmt.Errorf("bad feature %q", f)
		}
		idx64, err := parseIndex(f[:colon])
		if err != nil || idx64 < 1 {
			return idx, val, 0, false, fmt.Errorf("bad index %q", f[:colon])
		}
		v, err := parseFloat(f[colon+1:])
		if err != nil {
			return idx, val, 0, false, fmt.Errorf("bad value %q: %w", f[colon+1:], err)
		}
		j := int32(idx64 - 1) // to 0-based
		if j <= prev {
			return idx, val, 0, false, fmt.Errorf("indices not strictly increasing at %d", idx64)
		}
		prev = j
		if v == 0 {
			continue // drop explicit zeros
		}
		idx = append(idx, j)
		val = append(val, v)
	}
	return idx, val, y, ok, nil
}

// ParseLibSVMLine is AppendLibSVMLine for one line held as a string,
// returning the row as a freshly allocated vector.
func ParseLibSVMLine(name string, lineNo int, line string) (v sparse.Vector, y float64, ok bool, err error) {
	v.Idx, v.Val, y, ok, err = AppendLibSVMLine(name, lineNo, []byte(line), nil, nil)
	return v, y, ok, err
}

// ParseLibSVM reads the LibSVM text format ("label idx:val idx:val ...",
// one sample per line, 1-based feature indices, '#' comments allowed).
// The dimensionality is inferred as the maximum feature index unless
// minDim is larger. Blank lines are skipped; malformed lines produce an
// error naming the line number. Rows are parsed straight into the CSR's
// arrays.
func ParseLibSVM(r io.Reader, name string, minDim int) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var (
		x      = &sparse.CSR{IndPtr: []int64{0}}
		labels []float64
		maxIdx = int32(-1)
		lineNo = 0
	)
	for sc.Scan() {
		lineNo++
		idx, val, y, ok, err := AppendLibSVMLine(name, lineNo, sc.Bytes(), x.Idx, x.Val)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if n := len(idx); n > len(x.Idx) && idx[n-1] > maxIdx {
			maxIdx = idx[n-1]
		}
		x.Idx, x.Val = idx, val
		x.IndPtr = append(x.IndPtr, int64(len(idx)))
		labels = append(labels, y)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("libsvm %q: %w", name, err)
	}
	x.Dim = max(int(maxIdx)+1, minDim)
	d := &Dataset{Name: name, X: x, Y: labels}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// WriteLibSVM writes d in LibSVM text format with 1-based indices, each
// number in the shortest form that parses back to it (fmt's %g). Each
// row is appended into one reused buffer and written whole.
func WriteLibSVM(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i := 0; i < d.N(); i++ {
		line = strconv.AppendFloat(line[:0], d.Y[i], 'g', -1, 64)
		row := d.X.Row(i)
		for k, j := range row.Idx {
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(j)+1, 10)
			line = append(line, ':')
			line = strconv.AppendFloat(line, row.Val[k], 'g', -1, 64)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
