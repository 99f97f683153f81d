package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/isasgd/isasgd/internal/model"
)

func sampleState() *State {
	return &State{
		Algo:      "is-asgd",
		Objective: "logistic-l1(0.0001)",
		Dataset:   "news20s",
		Seq:       12,
		Epoch:     7,
		Iters:     70000,
		Weights:   []float64{0.1, -0.2, 0, 3.5},
	}
}

// encode is Save into a fresh buffer.
func encode(t testing.TB, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sealed is magic + body + the CRC-32C of both: a file whose checksum
// holds whatever body says.
func sealed(body []byte) []byte {
	b := append([]byte(magic), body...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// head is a version frame up to and including its count, every other
// field zero, so a test can lie in the count.
func head(width byte, count uint64) []byte {
	b := []byte{1, 0, 0, 0, 0, 0}              // seq 1; epoch, iters, published, live, done
	b = binary.LittleEndian.AppendUint64(b, 0) // loss
	b = append(b, 0, 0, 0, width)              // algo, objective, dataset, width
	return binary.AppendUvarint(b, count)
}

func TestRoundTrip(t *testing.T) {
	st := sampleState()
	got, err := Load(bytes.NewReader(encode(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Algo != st.Algo || got.Objective != st.Objective || got.Dataset != st.Dataset ||
		got.Seq != st.Seq || got.Epoch != st.Epoch || got.Iters != st.Iters || got.DType != model.PrecisionF64 {
		t.Fatalf("scalar fields changed: %+v", got)
	}
	for i := range st.Weights {
		if got.Weights[i] != st.Weights[i] {
			t.Fatal("weights changed")
		}
	}
}

// TestRoundTripBitwise pins both widths: every float64 bit pattern comes
// back, and float32 values in an F32 file come back bitwise at half the
// value bytes.
func TestRoundTripBitwise(t *testing.T) {
	w := []float64{math.SmallestNonzeroFloat64, -math.MaxFloat64, math.Copysign(0, -1), 1.0 / 3, math.Pi, 1e-300}
	st := &State{Weights: w}
	got, err := Load(bytes.NewReader(encode(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if math.Float64bits(got.Weights[i]) != math.Float64bits(w[i]) {
			t.Fatalf("f64 coordinate %d: %x, want %x", i, math.Float64bits(got.Weights[i]), math.Float64bits(w[i]))
		}
	}

	w32 := []float64{float64(float32(1.0 / 3)), float64(math.SmallestNonzeroFloat32), -math.MaxFloat32, 0.5}
	st32 := &State{DType: model.PrecisionF32, Weights: w32}
	b32, b64 := encode(t, st32), encode(t, &State{Weights: w32})
	if len(b64)-len(b32) != 4*len(w32) {
		t.Fatalf("F32 file is %d bytes, F64 %d: want %d fewer", len(b32), len(b64), 4*len(w32))
	}
	got, err = Load(bytes.NewReader(b32))
	if err != nil {
		t.Fatal(err)
	}
	if got.DType != model.PrecisionF32 {
		t.Fatalf("dtype %q, want f32", got.DType)
	}
	for i := range w32 {
		if math.Float64bits(got.Weights[i]) != math.Float64bits(w32[i]) {
			t.Fatalf("f32 coordinate %d changed", i)
		}
	}
}

func TestFileRoundTripAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	st := sampleState()
	if err := SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != st.Epoch {
		t.Fatal("file round trip mismatch")
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Fatalf("temp file leaked: %s", e.Name())
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a checkpoint")); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

func TestLoadRejectsWrongMagic(t *testing.T) {
	b := encode(t, sampleState())
	b[0] = 'X'
	if _, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	b := encode(t, sampleState())
	for _, n := range []int{len(b) / 2, len(b) - 1, len(magic) + 3} {
		if _, err := Load(bytes.NewReader(b[:n])); err == nil {
			t.Fatalf("checkpoint truncated to %d of %d bytes accepted", n, len(b))
		}
	}
	// Resealed, a short frame still fails: the frame's own bounds hold
	// behind a checksum that matches.
	if _, err := Load(bytes.NewReader(sealed(b[len(magic) : len(b)-5]))); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("resealed truncated frame: err = %v, want ErrBadFormat", err)
	}
}

// TestLoadRejectsBadCRC flips one bit in every byte position in turn.
func TestLoadRejectsBadCRC(t *testing.T) {
	b := encode(t, sampleState())
	for i := len(magic); i < len(b); i++ {
		c := bytes.Clone(b)
		c[i] ^= 1
		if _, err := Load(bytes.NewReader(c)); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("bit flip at byte %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

// TestLoadRefusesLegacy pins the error for the two formats this one
// replaced: testdata/legacy-gob.ckpt was written by the gob encoder
// checkpoints used before, and testdata/legacy-state.json is the
// cluster coordinator's JSON state file of that time.
func TestLoadRefusesLegacy(t *testing.T) {
	for file, format := range map[string]string{
		"legacy-gob.ckpt":   "gob checkpoint",
		"legacy-state.json": "JSON state file",
	} {
		_, err := LoadFile(filepath.Join("testdata", file))
		if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), format) {
			t.Fatalf("%s: err = %v, want ErrBadFormat naming a %s", file, err, format)
		}
	}
}

// TestLoadRefusesCountLie: a file whose checksum holds, and whose frame
// claims 2^28 coordinates in no value bytes, is refused before the
// values are allocated; so is its 20-byte prefix.
func TestLoadRefusesCountLie(t *testing.T) {
	lie := sealed(head(8, 1<<28))
	for _, b := range [][]byte{lie, lie[:20]} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(b))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%d-byte file claiming 2^28 coordinates: err = %v, want ErrBadFormat", len(b), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("refusing a %d-byte file allocated %d bytes", len(b), grew)
		}
	}
}

func TestValidate(t *testing.T) {
	st := sampleState()
	st.Weights = nil
	if err := st.Validate(); err == nil {
		t.Fatal("empty weights accepted")
	}
	var buf bytes.Buffer
	if err := Save(&buf, st); err == nil {
		t.Fatal("Save accepted invalid state")
	}
	st = sampleState()
	st.Epoch = -1
	if err := st.Validate(); err == nil {
		t.Fatal("negative epoch accepted")
	}
	st = sampleState()
	st.Weights[1] = math.NaN()
	if err := st.Validate(); err == nil {
		t.Fatal("NaN weight accepted")
	}
	st = sampleState()
	st.Weights[0] = math.Inf(-1)
	if err := st.Validate(); err == nil {
		t.Fatal("Inf weight accepted")
	}
	st = sampleState()
	st.DType = model.PrecisionF32
	if err := st.Validate(); err == nil {
		t.Fatal("f32 state with weights that are not float32 values accepted")
	}
	st = sampleState()
	st.Dataset = strings.Repeat("d", 4097)
	if err := st.Validate(); err == nil {
		t.Fatal("name longer than a frame string accepted")
	}
}

func TestSaveFileBadDir(t *testing.T) {
	if err := SaveFile("/nonexistent-dir-xyz/model.ckpt", sampleState()); err == nil {
		t.Fatal("SaveFile into missing directory succeeded")
	}
}

// FuzzCheckpoint: Load never panics, and whatever it accepts is a valid
// State that saves and loads back unchanged. (The bytes may differ: a
// frame's publish instant, flags and loss are not part of a State.)
func FuzzCheckpoint(f *testing.F) {
	good := encode(f, sampleState())
	for _, seed := range [][]byte{
		good,
		encode(f, &State{DType: model.PrecisionF32, Weights: []float64{1, -0.5}}),
		good[:len(good)/2],     // truncated
		sealed(head(8, 1<<28)), // count over the bytes
		sealed(binary.LittleEndian.AppendUint64(head(8, 2), 0)), // count 2, one value
		sealed(head(8, 0)), // no weights
		sealed(binary.LittleEndian.AppendUint64(head(8, 1), math.Float64bits(math.NaN()))),
		sealed(binary.LittleEndian.AppendUint32(head(4, 1), math.Float32bits(float32(math.Inf(1))))),
		append(bytes.Clone(good[:len(good)-1]), good[len(good)-1]^0xff), // bad CRC
	} {
		f.Add(seed)
	}
	for _, file := range []string{"legacy-gob.ckpt", "legacy-state.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := Load(bytes.NewReader(b))
		if err != nil {
			return
		}
		if err := st.Validate(); err != nil {
			t.Fatalf("accepted an invalid state: %v", err)
		}
		again, err := Load(bytes.NewReader(encode(t, st)))
		if err != nil || !reflect.DeepEqual(again, st) {
			t.Fatalf("saved and loaded back as %+v, %v; want %+v", again, err, st)
		}
	})
}
