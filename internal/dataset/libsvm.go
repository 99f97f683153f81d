package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
// not belong to a white-space rune. The usual separator, one ' ' before
// a printable ASCII byte (as an int8, above ' '; ASCII white space is at
// or below it), is passed without decoding anything.
func skipSpace(line []byte, i int) int {
	if i+1 < len(line) && line[i] == ' ' && int8(line[i+1]) > ' ' {
		return i + 1
	}
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

// endsField reports whether a field ends at offset i: at the end of the
// line, a white-space rune or a '#', which starts the comment. The usual
// case, a ' ' or the end of the line, is decided inline.
func endsField(line []byte, i int) bool {
	return i == len(line) || line[i] == ' ' || endsFieldAt(line[i:])
}

func endsFieldAt(b []byte) bool {
	if c := b[0]; c < utf8.RuneSelf {
		return libsvmSpace[c] || c == '#'
	}
	return wideSpace(b) > 0
}

// fieldEnd returns the offset of the first byte at or after i where the
// field ends.
func fieldEnd(line []byte, i int) int {
	for !endsField(line, i) {
		i++
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

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [23]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

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
	var sticky uint64
	if r != 0 {
		sticky = 1
	}
	// Round to nearest, ties to even, without a branch: the dropped bits
	// plus half−1 carry into the kept part exactly when they exceed half,
	// or equal it while the remainder is non-zero or the kept part odd.
	half := uint64(1) << (shift - 1)
	up := (q&(half<<1-1) + half - 1 + (q>>shift&1 | sticky)) >> shift
	q = q>>shift + up // a carry out of bit 52 lands in the exponent field below
	return math.Float64frombits(uint64(e+shift+52+1023)<<52 + (q - 1<<52))
}

// digitRun returns how many of the eight bytes of the little-endian word
// v, counted from the lowest (the first in the text), are ASCII digits
// before the first byte that is not. Adding 0x46 sets the top bit of a
// byte above '9' and subtracting 0x30 that of a byte below '0'; a carry
// or borrow starts only at such a byte and runs towards the later ones,
// so the lowest byte flagged is the first that is not a digit.
func digitRun(v uint64) int {
	return bits.TrailingZeros64(((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080) >> 3
}

// eightDigitsValue converts eight ASCII digits, the first in the lowest
// byte of v, with three multiplies: adjacent digits pair into 2-digit
// lanes, then the four lanes fold into the 8-digit number.
func eightDigitsValue(v uint64) uint64 {
	const mask = 0x000000FF000000FF
	const mul1 = 100 + 1000000<<32
	const mul2 = 1 + 10000<<32
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return ((v&mask)*mul1 + (v>>16&mask)*mul2) >> 32
}

// pow10u holds 10^n for the digit counts one step of appendDigits reads.
var pow10u = [9]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// appendDigits reads the run of ASCII digits at line[i:] onto mant
// (mant·10^n + the run's value) and returns the offset after it. While
// eight bytes remain it reads a window per step: one load, the run's
// length, and the run converted as the window's value with its other
// bytes made leading '0's. The last few bytes of the line go one at a
// time.
func appendDigits(line []byte, i int, mant uint64) (uint64, int) {
	for ; i+8 <= len(line); i += 8 {
		v := binary.LittleEndian.Uint64(line[i:])
		if n := digitRun(v); n < 8 {
			return mant*pow10u[n] + eightDigitsValue(v<<(64-8*n)|0x3030303030303030>>(8*n)), i + n
		}
		mant = mant*1e8 + eightDigitsValue(v)
	}
	for ; i < len(line) && line[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(line[i]-'0')
	}
	return mant, i
}

// scanDecimal converts the plain decimal — [+-]digits[.digits], at most
// 19 digits after the leading zeros, at most len(pow5)-1 of them after
// the point — that starts at line[i] and ends its field, and returns the
// field's end. A mantissa below 2^53 over at most 10^22 is two exact
// float64s, so one IEEE division rounds the quotient correctly; other
// mantissas take divPow10. Everything else (exponents, inf/nan, hex,
// underscores, longer mantissas, malformed text, a field that goes on)
// reports !ok and is left to strconv.ParseFloat, so the accepted set and
// the parsed bits are strconv's.
func scanDecimal(line []byte, i int) (f float64, end int, ok bool) {
	start := i
	var sign uint64
	if i < len(line) {
		// Branch-free: the sign of a random value is a coin toss.
		c, skip := line[i], 0
		if c == '-' {
			sign = 1 << 63
		}
		if (c-'+')&^2 == 0 { // '+' or '-'
			skip = 1
		}
		i += skip
	}
	// The integer part goes a byte at a time: a label or a feature value
	// seldom has more than one digit there, and a loop that runs once is
	// cheaper than a window.
	var mant uint64 // wraps only past 19 significant digits, rejected below
	first := i
	for ; i < len(line) && line[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(line[i]-'0')
	}
	digits, frac := i-first, 0
	if i < len(line) && line[i] == '.' {
		var next int
		mant, next = appendDigits(line, i+1, mant)
		frac = next - i - 1
		digits += frac
		i = next
	}
	if digits == 0 || frac >= len(pow5) || !endsField(line, i) {
		return 0, i, false
	}
	if digits > 19 {
		// Leading zeros ("0.00123...") carry no weight.
		for _, c := range line[start:i] {
			if c >= '1' && c <= '9' {
				break
			}
			if c == '0' {
				digits--
			}
		}
		if digits > 19 {
			return 0, i, false
		}
	}
	switch {
	case mant < 1<<53 && frac < len(pow10):
		f = float64(mant) / pow10[frac]
	case mant != 0:
		f = divPow10(mant, frac)
	}
	return math.Float64frombits(math.Float64bits(f) | sign), i, true
}

// parseNumber converts the number that starts at line[i] and returns
// the end of its field: a plain decimal in the one pass of scanDecimal,
// anything else through strconv.ParseFloat on the whole field.
func parseNumber(line []byte, i int) (f float64, end int, err error) {
	f, end, ok := scanDecimal(line, i)
	if !ok {
		end = fieldEnd(line, end)
		f, err = strconv.ParseFloat(string(line[i:end]), 64)
	}
	return f, end, err
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
// This is the one line-level parser behind the whole-file ParseLibSVM
// and the chunked stream.Reader, so both accept exactly the same inputs
// and produce the same bits.
func AppendLibSVMLine(name string, lineNo int, line []byte, idx []int32, val []float64) ([]int32, []float64, float64, bool, error) {
	n0 := len(idx)
	idx, val, y, ok, err := appendLine(line, idx, val)
	if err != nil {
		return idx[:n0], val[:n0], 0, false, fmt.Errorf("libsvm %q line %d: %w", name, lineNo, err)
	}
	return idx, val, y, ok, nil
}

// appendLine is AppendLibSVMLine without the error prefix and the arena
// truncation. It is one cursor pass over the line: a plain feature's
// index digits are read up to the ':' and its value up to the field's
// end, and a byte is looked at again only when a field turns out not to
// be plain, to hand that field to strconv whole.
func appendLine(line []byte, idx []int32, val []float64) (_ []int32, _ []float64, y float64, ok bool, _ error) {
	prev := int32(-1)
	for i := skipSpace(line, 0); i < len(line) && line[i] != '#'; i = skipSpace(line, i) {
		if !ok { // the first field is the label
			label, end, err := parseNumber(line, i)
			if err != nil {
				return idx, val, 0, false, fmt.Errorf("bad label %q: %w", line[i:end], err)
			}
			if math.IsNaN(label) || math.IsInf(label, 0) {
				// Rejecting here (not only in Dataset.Validate) keeps the chunked
				// streaming reader — which never materializes a Dataset — in
				// agreement with the whole-file parser: a NaN label must not be
				// trainable through either path.
				return idx, val, 0, false, fmt.Errorf("non-finite label %q", line[i:end])
			}
			y, ok, i = label, true, end
			continue
		}
		// Up to nine plain digits and a ':' are an index that fits an
		// int32; any other field is split at its first ':' and its index
		// read by strconv.
		digits, colon := appendDigits(line, i, 0)
		j64 := int64(digits)
		if colon == i || colon-i > 9 || colon == len(line) || line[colon] != ':' {
			f := line[i:fieldEnd(line, colon)]
			c := bytes.IndexByte(f, ':')
			if c <= 0 {
				return idx, val, 0, false, fmt.Errorf("bad feature %q", f)
			}
			var err error
			if j64, err = strconv.ParseInt(string(f[:c]), 10, 32); err != nil {
				j64 = 0
			}
			colon = i + c
		}
		if j64 < 1 {
			return idx, val, 0, false, fmt.Errorf("bad index %q", line[i:colon])
		}
		v, end, err := parseNumber(line, colon+1)
		if err != nil {
			return idx, val, 0, false, fmt.Errorf("bad value %q: %w", line[colon+1:end], err)
		}
		i = end
		j := int32(j64 - 1) // to 0-based
		if j <= prev {
			return idx, val, 0, false, fmt.Errorf("indices not strictly increasing at %d", j64)
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
