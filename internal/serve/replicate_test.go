package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/frame"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/wire32"
)

// getFrame fetches one 200 replicate answer, checks that it is a frame
// that re-encodes to itself, and decodes it against a model of dim
// coordinates.
func getFrame(t *testing.T, url string, dim int) ReplicateResponse {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != frame.ContentType {
		t.Fatalf("GET %s: status %d, Content-Type %q", url, resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if resp.ContentLength != int64(len(raw)) {
		t.Fatalf("GET %s: Content-Length %d for a %d-byte frame", url, resp.ContentLength, len(raw))
	}
	rr, err := readReplicate(bytes.NewReader(raw), dim)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if again := appendReplicate(nil, &rr); !bytes.Equal(again, raw) {
		t.Fatalf("GET %s: frame does not re-encode to itself:\n  in % x\n out % x", url, raw, again)
	}
	return rr
}

// TestReplicateFrameLayout pins the frame byte for byte against the
// layout ReplicateResponse documents.
func TestReplicateFrameLayout(t *testing.T) {
	got := appendReplicate(nil, &ReplicateResponse{Seq: 300, Epoch: 2, Iters: 5, PublishedUnix: 1,
		Live: true, Algo: "is", Dataset: "d", DType: model.PrecisionF32, Weights: []float64{1, -2}})
	want := []byte{
		0xac, 0x02, // seq 300
		2,           // epoch
		5,           // iters
		1,           // published
		1,           // live
		2, 'i', 's', // algo
		0,      // objective
		1, 'd', // dataset
		4,                      // width
		2,                      // count
		0x00, 0x00, 0x80, 0x3f, // float32 1
		0x00, 0x00, 0x00, 0xc0, // float32 -2
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("f32 frame\n got % x\nwant % x", got, want)
	}
	got = appendReplicate(nil, &ReplicateResponse{Seq: 7, PublishedUnix: -1, DType: model.PrecisionF64})
	want = []byte{
		7,       // seq
		0, 0, 0, // epoch, iters, published (a negative clock clamps to 0)
		0,       // live
		0, 0, 0, // algo, objective, dataset
		8, // width
		0, // count: the caller is current
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("current frame\n got % x\nwant % x", got, want)
	}
	// A name crosses whole up to frame.MaxString bytes; a longer one is
	// sent whole too, and refused rather than cut.
	path := "/" + strings.Repeat("é", (frame.MaxString-1)/2)
	rr, err := readReplicate(bytes.NewReader(appendReplicate(nil, &ReplicateResponse{Seq: 1, Dataset: path})), 0)
	if err != nil || rr.Dataset != path {
		t.Fatalf("%d-byte dataset name: %v; want it whole", len(path), err)
	}
	if _, err := readReplicate(bytes.NewReader(appendReplicate(nil, &ReplicateResponse{Seq: 1, Dataset: path + "xx"})), 0); err == nil {
		t.Fatalf("%d-byte dataset name accepted, want a refusal", len(path)+2)
	}
}

// TestReplicateFrameRoundTrip sends versions of an f64 and an
// f32-stamped store through the endpoint. Both arrive bitwise; the f32
// frame carries exactly wire32.AppendNarrow's packing of the version's
// float32 view, half the value bytes.
func TestReplicateFrameRoundTrip(t *testing.T) {
	const dim = 1000
	w64, w32 := make([]float64, dim), make([]float64, dim)
	for j := range w64 {
		w64[j] = math.Sin(float64(j)) * 1e-3 // not float32-representable
		w32[j] = float64(float32(w64[j]))
	}
	mgr := NewManager(NewRegistry(), 1, t.TempDir())
	ts := httptest.NewServer(NewServerOpts(mgr, ServerOptions{ReplicateWindow: 50 * time.Millisecond}))
	t.Cleanup(ts.Close)
	st32 := f32Store(w32)
	for name, st := range map[string]*snapshot.Store{"wide": snapshot.Of(1, 1, w64), "narrow": st32} {
		if err := mgr.Registry().Publish(&Model{Name: name, Objective: "logistic-l1", Store: st}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		want  []float64
		dtype string
		width int
	}{
		{"wide", w64, model.PrecisionF64, frame.F64},
		{"narrow", w32, model.PrecisionF32, frame.F32},
	} {
		rr := getFrame(t, ts.URL+"/v1/replicate?model="+tc.name+"&since=0", dim)
		if rr.DType != tc.dtype || rr.Objective != "logistic-l1" || len(rr.Weights) != dim {
			t.Fatalf("%s: decoded %s frame of %d values, objective %q", tc.name, rr.DType, len(rr.Weights), rr.Objective)
		}
		for j, v := range tc.want {
			if math.Float64bits(rr.Weights[j]) != math.Float64bits(v) {
				t.Fatalf("%s: coordinate %d = %v, want %v bitwise", tc.name, j, rr.Weights[j], v)
			}
		}
		current := rr
		current.Weights = nil
		if n := len(appendReplicate(nil, &rr)) - len(appendReplicate(nil, &current)); n != tc.width*dim+1 {
			t.Fatalf("%s: frame is %d bytes over a count-0 frame, want %d × %d values and one more count byte",
				tc.name, n, tc.width, dim)
		}
	}
	full := appendReplicate(nil, &ReplicateResponse{Seq: 1, DType: model.PrecisionF32, Weights: w32})
	values := full[len(full)-frame.F32*dim:]
	if want := wire32.AppendNarrow(nil, st32.Load().W32()); !bytes.Equal(values, want) {
		t.Fatal("f32 frame values differ from wire32.AppendNarrow of the version's float32 view")
	}
}

// TestReplicateReadBound pins the decoder's bounds: count may not
// exceed the listed Dim nor the bytes that arrived, and a body that is
// short or padded fails.
func TestReplicateReadBound(t *testing.T) {
	const dim = 8
	full := appendReplicate(nil, &ReplicateResponse{Seq: 2, Weights: make([]float64, dim)})
	for _, tc := range []struct {
		name string
		body []byte
		dim  int
		ok   bool
	}{
		{"exact", full, dim, true},
		{"Dim above the count", full, dim + 1, true},
		{"Dim shrank below the count", full, dim - 1, false},
		{"truncated", full[:len(full)-1], dim, false},
		{"trailing byte", append(full[:len(full):len(full)], 0), dim, false},
		{"empty body", nil, dim, false},
	} {
		if _, err := readReplicate(bytes.NewReader(tc.body), tc.dim); (err == nil) != tc.ok {
			t.Fatalf("%s: err %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// An origin that lists the largest Dim and announces that many values
	// but sends a few bytes is refused before the values are allocated.
	current := appendReplicate(nil, &ReplicateResponse{Seq: 1})
	lie := binary.AppendUvarint(current[:len(current)-1], maxModelDim) // count 0 replaced
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readReplicate(bytes.NewReader(lie), maxModelDim)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("count of %d values in a %d-byte body accepted", maxModelDim, len(lie))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing a %d-byte frame allocated %d bytes", len(lie), grew)
	}
}

// TestReplicaSkipsOversizedModel: a model the origin lists with a Dim
// over maxModelDim (or below 0) gets no puller, so no pull is sized by it.
func TestReplicaSkipsOversizedModel(t *testing.T) {
	repl, err := NewReplicator(ReplicatorConfig{Origin: "http://127.0.0.1:1", Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	repl.reconcile(ctx, []ModelInfo{{Name: "huge", Dim: 1 << 40}, {Name: "negative", Dim: -1}})
	repl.mu.Lock()
	n := len(repl.pullers)
	repl.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d pullers started for models over the Dim limit", n)
	}
}

// FuzzReplicateFrame feeds arbitrary bytes to the replicate decoder.
// Oracle: it fails, or it accepts a frame that re-encodes to the same
// bytes and carries only finite values. The seed corpus is
// testdata/fuzz/FuzzReplicateFrame.
func FuzzReplicateFrame(f *testing.F) {
	const dim = 4
	f.Fuzz(func(t *testing.T, b []byte) {
		rr, err := readReplicate(bytes.NewReader(b), dim)
		if err != nil {
			return
		}
		if j := model.FirstNonFinite(rr.Weights); j >= 0 {
			t.Fatalf("accepted non-finite value at %d", j)
		}
		if again := appendReplicate(nil, &rr); !bytes.Equal(again, b) {
			t.Fatalf("re-encoding differs:\n  in % x\n out % x", b, again)
		}
	})
}
