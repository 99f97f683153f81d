package serve

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
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
func getFrame(t *testing.T, url string, dim int) (frame.Header, []float64) {
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
	h, w, err := frame.DecodeVersion(raw, dim, nil)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if again := frame.AppendVersion(nil, &h, w); !bytes.Equal(again, raw) {
		t.Fatalf("GET %s: frame does not re-encode to itself:\n  in % x\n out % x", url, raw, again)
	}
	return h, w
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
		h, w := getFrame(t, ts.URL+"/v1/replicate?model="+tc.name+"&since=0", dim)
		if h.DType != tc.dtype || h.Objective != "logistic-l1" || len(w) != dim {
			t.Fatalf("%s: decoded %s frame of %d values, objective %q", tc.name, h.DType, len(w), h.Objective)
		}
		for j, v := range tc.want {
			if math.Float64bits(w[j]) != math.Float64bits(v) {
				t.Fatalf("%s: coordinate %d = %v, want %v bitwise", tc.name, j, w[j], v)
			}
		}
		if n := len(frame.AppendVersion(nil, &h, w)) - len(frame.AppendVersion(nil, &h, nil)); n != tc.width*dim+1 {
			t.Fatalf("%s: frame is %d bytes over a count-0 frame, want %d × %d values and one more count byte",
				tc.name, n, tc.width, dim)
		}
	}
	full := frame.AppendVersion(nil, &frame.Header{Seq: 1, DType: model.PrecisionF32}, w32)
	values := full[len(full)-frame.F32*dim:]
	if want := wire32.AppendNarrow(nil, st32.Load().W32()); !bytes.Equal(values, want) {
		t.Fatal("f32 frame values differ from wire32.AppendNarrow of the version's float32 view")
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
