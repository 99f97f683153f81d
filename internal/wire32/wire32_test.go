package wire32

import (
	"math"
	"testing"
)

// narrow is the float32 view a publisher packs.
func narrow(vals []float64) []float32 {
	out := make([]float32, len(vals))
	for i, v := range vals {
		out[i] = float32(v)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1, 0.5, 3.25e7, -1e-8, math.Pi}
	b := AppendNarrow(nil, narrow(vals))
	if len(b) != 4*len(vals) {
		t.Fatalf("packed %d bytes, want %d", len(b), 4*len(vals))
	}
	got, err := DecodeWide(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got[i] != float64(float32(v)) {
			t.Errorf("coord %d: %g, want %g", i, got[i], float32(v))
		}
	}
}

func TestWideRoundTripLossless(t *testing.T) {
	// An f32-representable vector must survive pack → widen bitwise.
	vals := []float64{0, 0.5, -2.25, 1024, float64(float32(math.Pi))}
	wide, err := DecodeWide(nil, AppendNarrow(nil, narrow(vals)))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if wide[i] != v {
			t.Errorf("coord %d: widened %g != original %g", i, wide[i], v)
		}
	}
}

func TestAppendNarrowLayout(t *testing.T) {
	// Little-endian IEEE-754: 1.5 is 0x3fc00000, -3.75 is 0xc0700000.
	got := AppendNarrow([]byte{0xaa}, []float32{1.5, -3.75})
	want := []byte{0xaa, 0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0x70, 0xc0}
	if string(got) != string(want) {
		t.Fatalf("AppendNarrow = % x, want % x", got, want)
	}
}

func TestDecodeBadLength(t *testing.T) {
	for _, b := range [][]byte{{1, 2, 3}, {1, 2, 3, 4, 5}} {
		if _, err := DecodeWide(nil, b); err == nil {
			t.Fatalf("DecodeWide accepted a length of %d, not divisible by 4", len(b))
		}
	}
}

func TestDecodeReusesCapacity(t *testing.T) {
	buf := make([]float64, 0, 8)
	got, err := DecodeWide(buf, AppendNarrow(nil, []float32{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("DecodeWide reallocated despite sufficient capacity")
	}
}
