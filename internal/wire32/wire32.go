// Package wire32 is the compact float32 wire encoding of the serving
// replication protocol (internal/serve): little-endian IEEE-754
// float32, 4 bytes per coordinate, carried as a JSON []byte (base64).
// Relative to a textual float64 JSON array it is roughly a quarter of
// the payload; the narrowing it applies is lossless when the producing
// run trained at float32 (snapshot.Store.DType). The cluster protocol
// has its own binary frame (internal/cluster/wire.go).
package wire32

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendNarrow appends vals as little-endian float32 onto dst
// (publishers pack a version's cached float32 view).
func AppendNarrow(dst []byte, vals []float32) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// DecodeWide decodes a little-endian float32 packing widened to float64
// in dst (grown as needed). The byte length must be a multiple of 4;
// values are NOT checked for finiteness — receivers validate after
// decoding. It is the receiving side of a replication pull,
// which republishes into a float64 snapshot store. Widening float32 to
// float64 is exact, so for f32-stamped stores the round trip through the
// wire is bitwise-lossless.
func DecodeWide(dst []float64, b []byte) ([]float64, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("wire32: payload length %d is not a multiple of 4", len(b))
	}
	n := len(b) / 4
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:])))
	}
	return dst, nil
}
