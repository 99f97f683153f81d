// Package frame is the binary weight codec shared by the cluster wire
// (internal/cluster: pulls and pushes) and snapshot replication
// (internal/serve: GET /v1/replicate). Each protocol declares only its
// own header; the pieces every frame is built from live here:
//
//   - integers are unsigned varints (encoding/binary's Uvarint) in their
//     shortest form;
//   - a flag is one byte, 0 or 1;
//   - a string is a uvarint length ≤ MaxString, then its bytes;
//   - a width byte, F64 (8) or F32 (4), precedes a value count; WidthOf
//     and NameOf map it to and from the precision names "f64" and "f32";
//   - values are little-endian IEEE-754 at that width, finite.
//
// Frames are outside input, and Reader fails closed: it rejects
// truncated or trailing bytes, non-shortest varints, integers over their
// field's limit, flags other than 0 or 1, overlong strings, unknown
// widths and non-finite values (a binary frame, unlike JSON text, can
// carry NaN and Inf bit patterns). So every frame a protocol's decoder
// accepts re-encodes to the same bytes.
//
// Narrowing a value to F32 costs ~1e-7 relative; widening it back is
// exact, so a float32-trained vector crosses an F32 frame bitwise.
package frame

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/isasgd/isasgd/internal/model"
)

// Value widths: the byte that precedes a frame's value count.
const (
	F64 = 8 // float64 values
	F32 = 4 // float32 values
)

// MaxString bounds the byte length of a string field: Linux's PATH_MAX,
// so any path the system can open (such as a stream job's dataset)
// fits whole.
const MaxString = 4096

// ContentType labels an HTTP body that is one frame.
const ContentType = "application/octet-stream"

// WidthOf is the width byte of a precision name: F32 for
// model.PrecisionF32, F64 for anything else ("" and model.PrecisionF64).
func WidthOf(name string) int {
	if name == model.PrecisionF32 {
		return F32
	}
	return F64
}

// NameOf is the precision name of a width byte Reader.Width accepted.
func NameOf(width int) string {
	if width == F32 {
		return model.PrecisionF32
	}
	return model.PrecisionF64
}

// AppendBool appends a flag byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends s with its length in front. A string longer
// than MaxString is written whole, and Reader.String refuses it.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendValues appends vals at width (F64 or F32), little-endian.
func AppendValues(dst []byte, vals []float64, width int) []byte {
	n, size := len(dst), width*len(vals)
	dst = slices.Grow(dst, size)[:n+size]
	b := dst[n:]
	if width == F32 {
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(float32(v)))
		}
	} else {
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
	}
	return dst
}

// Reader consumes a frame front to back. The first failure sticks:
// later reads return zero values, and Err reports it.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads the frame b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the bytes not yet consumed.
func (r *Reader) Rest() []byte { return r.b }

// Fail records a failure unless one is already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("frame: "+format, args...)
	}
}

// Uvarint reads one shortest-form uvarint no larger than limit.
func (r *Reader) Uvarint(what string, limit uint64) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.Fail("truncated at %s", what)
	case n < 0:
		r.Fail("%s overflows 64 bits", what)
	case n > 1 && r.b[n-1] == 0:
		r.Fail("%s is not in shortest form", what)
	case v > limit:
		r.Fail("%s %d exceeds %d", what, v, limit)
	default:
		r.b = r.b[n:]
		return v
	}
	return 0
}

// u8 reads one byte.
func (r *Reader) u8(what string) byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.Fail("truncated at %s", what)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bool reads a flag byte, which must be 0 or 1.
func (r *Reader) Bool(what string) bool {
	switch c := r.u8(what); {
	case r.err != nil:
	case c == 1:
		return true
	case c != 0:
		r.Fail("%s byte %d (want 0 or 1)", what, c)
	}
	return false
}

// Float64 reads one finite little-endian float64.
func (r *Reader) Float64(what string) float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.Fail("truncated at %s", what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Fail("non-finite %s", what)
		return 0
	}
	return v
}

// String reads one length-prefixed string of at most MaxString bytes.
func (r *Reader) String(what string) string {
	n := r.Uvarint(what+" length", MaxString)
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.Fail("truncated in %s", what)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Width reads the value-width byte: F64 or F32.
func (r *Reader) Width() int {
	switch w := r.u8("width"); {
	case r.err != nil:
	case w == F64, w == F32:
		return int(w)
	default:
		r.Fail("value width %d (want 8 or 4)", w)
	}
	return 0
}

// Values decodes the rest of the frame into dst at width. The rest must
// be exactly len(dst) values, all finite.
func (r *Reader) Values(dst []float64, width int) {
	if r.err != nil {
		return
	}
	switch want := width * len(dst); {
	case len(r.b) < want:
		r.Fail("truncated: %d value bytes for %d values of %d bytes", len(r.b), len(dst), width)
		return
	case len(r.b) > want:
		r.Fail("%d trailing bytes", len(r.b)-want)
		return
	}
	if width == F32 {
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(r.b[4*i:])))
		}
	} else {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
		}
	}
	r.b = r.b[len(r.b):]
	if i := model.FirstNonFinite(dst); i >= 0 {
		r.Fail("non-finite value at position %d", i)
	}
}
