package frame

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/xrand"
)

// head assembles a version frame's bytes up to and including the count,
// so a test can lie in the count or in the values after it.
func head(seq uint64, width byte, count uint64) []byte {
	b := binary.AppendUvarint(nil, seq)
	b = append(b, 0, 0, 0, 0, 0)               // epoch, iters, published, live, done
	b = binary.LittleEndian.AppendUint64(b, 0) // loss
	b = append(b, 0, 0, 0, width)              // algo, objective, dataset, width
	return binary.AppendUvarint(b, count)
}

// patch overwrites b from offset at with v.
func patch(b []byte, at int, v ...byte) []byte {
	copy(b[at:], v)
	return b
}

func f64s(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func f32s(b []byte, vs ...float32) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// TestVersionFrameLayout pins the version frame byte for byte against
// the layout Header documents.
func TestVersionFrameLayout(t *testing.T) {
	got := AppendVersion(nil, &Header{Seq: 300, Epoch: 2, Iters: 5, Published: 1, Live: true, Done: true,
		Loss: -1, Algo: "is", Dataset: "d", DType: model.PrecisionF32}, []float64{1, -2})
	want := []byte{
		0xac, 0x02, // seq 300
		2,                                              // epoch
		5,                                              // iters
		1,                                              // published
		1,                                              // live
		1,                                              // done
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0xbf, // loss -1
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
	got = AppendVersion(nil, &Header{Seq: 7, Published: -1, Loss: 0.5}, nil)
	want = []byte{
		7,       // seq
		0, 0, 0, // epoch, iters, published (a negative clock clamps to 0)
		0, 0, // live, done
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // loss 0.5
		0, 0, 0, // algo, objective, dataset
		8, // width: "" is f64
		0, // count: the poller is current
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("current frame\n got % x\nwant % x", got, want)
	}
	// A name crosses whole up to MaxString bytes; a longer one is sent
	// whole too, and refused rather than cut.
	path := "/" + strings.Repeat("é", (MaxString-1)/2)
	h, _, err := DecodeVersion(AppendVersion(nil, &Header{Seq: 1, Dataset: path}, nil), 0, nil)
	if err != nil || h.Dataset != path {
		t.Fatalf("%d-byte dataset name: %v; want it whole", len(path), err)
	}
	if _, _, err := DecodeVersion(AppendVersion(nil, &Header{Seq: 1, Dataset: path + "xx"}, nil), 0, nil); err == nil {
		t.Fatalf("%d-byte dataset name accepted, want a refusal", len(path)+2)
	}
}

// TestVersionRoundTrip decodes frames at both widths into the caller's
// buffer. An f64 frame carries the exact bits; an f32 frame carries the
// narrowing, so a float32 vector crosses it bitwise, and a value that
// narrows to Inf is refused.
func TestVersionRoundTrip(t *testing.T) {
	w := []float64{0.5, -1.25, 1e-300, math.Sin(1)}
	in := Header{Seq: 9, Epoch: 8, Iters: 7, Published: 6, Live: true, Done: true, Loss: 0.25,
		Algo: "is-asgd", Objective: "logistic-l1", Dataset: "news20"}
	for _, tc := range []struct {
		dtype string
		want  func(float64) float64
	}{
		{model.PrecisionF64, func(v float64) float64 { return v }},
		{model.PrecisionF32, func(v float64) float64 { return float64(float32(v)) }},
	} {
		in.DType = tc.dtype
		dst := make([]float64, len(w))
		b := AppendVersion(nil, &in, w)
		if len(b) > maxHead+F64*len(w) {
			t.Fatalf("%s: %d-byte frame over Pull's %d-byte read bound", tc.dtype, len(b), maxHead+F64*len(w))
		}
		h, got, err := DecodeVersion(b, len(w), dst)
		if err != nil {
			t.Fatalf("%s: %v", tc.dtype, err)
		}
		if h != in {
			t.Fatalf("%s: header decoded as %+v, want %+v", tc.dtype, h, in)
		}
		if &got[0] != &dst[0] {
			t.Fatalf("%s: values not decoded into the caller's buffer", tc.dtype)
		}
		for j, v := range w {
			if math.Float64bits(got[j]) != math.Float64bits(tc.want(v)) {
				t.Fatalf("%s: coordinate %d = %v, want %v bitwise", tc.dtype, j, got[j], tc.want(v))
			}
		}
		// The decoded f32 vector is exactly float32-representable: it
		// crosses again unchanged.
		_, again, err := DecodeVersion(AppendVersion(nil, &in, got), len(w), nil)
		if err != nil || !slices.Equal(again, got) {
			t.Fatalf("%s: second crossing changed the vector (%v)", tc.dtype, err)
		}
	}
	if _, _, err := DecodeVersion(AppendVersion(nil, &Header{Seq: 1, DType: model.PrecisionF32},
		[]float64{math.MaxFloat64}), 1, nil); err == nil {
		t.Fatal("f32 frame narrowed to Inf accepted")
	}
	if _, w, err := DecodeVersion(AppendVersion(nil, &Header{Seq: 3}, nil), 4, nil); err != nil || w != nil {
		t.Fatalf("count-0 frame decoded as %d values, %v", len(w), err)
	}
	if _, _, err := DecodeVersion(f64s(head(3, 8, 2), 1, 2), 4, nil); err == nil {
		t.Fatal("2 coordinates accepted for a 4-coordinate model")
	}
	// A buffer shorter than Dim is replaced, not overrun.
	if _, got, err := DecodeVersion(f64s(head(3, 8, 2), 1, 2), 2, make([]float64, 1)); err != nil || len(got) != 2 {
		t.Fatalf("short buffer: %d values, %v", len(got), err)
	}
}

// TestVersionReadBound pins the decoder's bounds: the count must be 0
// or Dim (any count when Dim is unknown) and fit the bytes that arrived,
// and a body that is short or padded fails. A peer that lists the largest Dim and announces that
// many values in a few bytes is refused before the values are
// allocated. Pull accepts the longest frame of Dim, every field at its
// widest, and refuses a longer body.
func TestVersionReadBound(t *testing.T) {
	const dim = 8
	full := AppendVersion(nil, &Header{Seq: 2}, make([]float64, dim))
	for _, tc := range []struct {
		name string
		body []byte
		dim  int
		ok   bool
	}{
		{"exact", full, dim, true},
		{"Dim grew past the count", full, dim + 1, false},
		{"Dim shrank below the count", full, dim - 1, false},
		{"truncated", full[:len(full)-1], dim, false},
		{"trailing byte", append(full[:len(full):len(full)], 0), dim, false},
		{"empty body", nil, dim, false},
		{"Dim unknown", full, -1, true},
		{"Dim unknown, truncated", full[:len(full)-1], -1, false},
		{"Dim unknown, trailing byte", append(full[:len(full):len(full)], 0), -1, false},
	} {
		if _, _, err := DecodeVersion(tc.body, tc.dim, nil); (err == nil) != tc.ok {
			t.Fatalf("%s: err %v, want ok=%v", tc.name, err, tc.ok)
		}
	}

	const huge = 1 << 28
	lie := head(1, 8, huge)
	for _, dim := range []int{huge, -1} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeVersion(lie, dim, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("Dim %d: count of %d values in a %d-byte body accepted", dim, huge, len(lie))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("Dim %d: refusing a %d-byte frame allocated %d bytes", dim, len(lie), grew)
		}
	}

	name := strings.Repeat("n", MaxString)
	longest := AppendVersion(nil, &Header{Seq: math.MaxUint64, Epoch: math.MaxInt, Iters: math.MaxInt64,
		Published: math.MaxInt64, Live: true, Done: true, Loss: -math.MaxFloat64,
		Algo: name, Objective: name, Dataset: name}, make([]float64, dim))
	if len(longest) > maxHead+F64*dim {
		t.Fatalf("longest frame is %d bytes, over Pull's %d-byte read bound", len(longest), maxHead+F64*dim)
	}
	a := &answer{status: http.StatusOK, ctype: ContentType, body: longest}
	srv := feedServer(t, a)
	if got, err := Pull(context.Background(), srv.Client(), srv.URL+"/?", 0, dim, nil); err != nil ||
		got.Seq != math.MaxUint64 || got.Dataset != name || len(got.Weights) != dim {
		t.Fatalf("longest frame (%d bytes): seq %d, %d values, %v; want it accepted whole",
			len(longest), got.Seq, len(got.Weights), err)
	}
	a.body = append(full[:len(full):len(full)], make([]byte, maxHead)...)
	if _, err := Pull(context.Background(), srv.Client(), srv.URL+"/?", 0, dim, nil); err == nil {
		t.Fatalf("a %d-byte body accepted for a %d-coordinate model", len(a.body), dim)
	}
}

// answer is one canned feed answer.
type answer struct {
	status int
	ctype  string
	body   []byte
}

// feedServer answers every request with a.
func feedServer(t *testing.T, a *answer) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", a.ctype)
		w.WriteHeader(a.status)
		w.Write(a.body) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestPullCursorRule pins the one cursor rule both pollers follow.
func TestPullCursorRule(t *testing.T) {
	w := []float64{1, 2}
	a := &answer{status: http.StatusOK, ctype: ContentType}
	srv := feedServer(t, a)
	for _, tc := range []struct {
		name     string
		seq      uint64
		vals     []float64
		since    uint64
		next     uint64
		protocol bool
	}{
		{"values newer than the cursor", 5, w, 3, 5, false},
		{"values at the cursor", 3, w, 3, 0, true},
		{"values behind the cursor", 2, w, 3, 0, true},
		{"current", 3, nil, 3, 3, false},
		{"current, ahead of the cursor", 4, nil, 3, 3, false},
		{"regressed behind the cursor", 1, nil, 50, 0, false},
	} {
		a.body = AppendVersion(nil, &Header{Seq: tc.seq}, tc.vals)
		got, err := Pull(context.Background(), srv.Client(), srv.URL+"/?", tc.since, len(w), nil)
		if tc.protocol {
			if err == nil {
				t.Fatalf("%s: accepted, want a protocol error", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Next != tc.next || got.Seq != tc.seq || (got.Weights == nil) != (tc.vals == nil) {
			t.Fatalf("%s: next %d, seq %d, %d values; want next %d", tc.name, got.Next, got.Seq, len(got.Weights), tc.next)
		}
	}
}

// TestPullStatusMapping pins how Pull reports an answer that is not a
// frame: a non-200 is a *StatusError with the JSON error's message, and
// a 200 of another Content-Type names it instead of failing to decode.
func TestPullStatusMapping(t *testing.T) {
	a := &answer{status: http.StatusNotFound, ctype: "application/json", body: []byte(`{"error":"model \"m\" not found"}`)}
	srv := feedServer(t, a)
	_, err := Pull(context.Background(), srv.Client(), srv.URL+"/?", 0, 2, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound || se.Msg != `model "m" not found` {
		t.Fatalf("404: %v, want a StatusError with the JSON message", err)
	}
	a.status, a.body = http.StatusServiceUnavailable, nil
	if _, err = Pull(context.Background(), srv.Client(), srv.URL+"/?", 0, 2, nil); !errors.As(err, &se) ||
		se.Msg != http.StatusText(http.StatusServiceUnavailable) {
		t.Fatalf("503 without a body: %v, want its status text", err)
	}
	a.status, a.body = http.StatusOK, []byte(`{"seq":1}`)
	_, err = Pull(context.Background(), srv.Client(), srv.URL+"/?", 0, 2, nil)
	if err == nil || errors.As(err, &se) || !strings.Contains(err.Error(), `"application/json"`) {
		t.Fatalf("200 JSON: %v, want an error naming the Content-Type", err)
	}
}

// TestServe covers what the handler adds to the version: the stamps
// from it beside the publisher's fields, and an early answer without
// values when stop closes. The poll window and a bad since are covered
// through both endpoints (TestReplicateEndpoint, TestPullQueryValidation).
func TestServe(t *testing.T) {
	store := snapshot.Of(2, 5, []float64{1, 2})
	stop := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		Serve(w, r, store, time.Minute, stop, func() Header { return Header{Algo: "is-asgd", Loss: -1} })
	}))
	defer srv.Close()
	a, err := Pull(context.Background(), srv.Client(), srv.URL+"/?", 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seq != 1 || a.Epoch != 2 || a.Iters != 5 || a.Published <= 0 || a.Algo != "is-asgd" || a.Loss != -1 ||
		len(a.Weights) != 2 || a.Weights[1] != 2 || a.Next != 1 {
		t.Fatalf("since=0: %+v, want seq 1 with its weights and stamps", a)
	}
	time.AfterFunc(30*time.Millisecond, func() { close(stop) })
	start := time.Now()
	if a, err = Pull(context.Background(), srv.Client(), srv.URL+"/?", 1, 2, nil); err != nil || a.Weights != nil || a.Next != 1 {
		t.Fatalf("stopped poll: %+v, %v; want no values", a, err)
	}
	if held := time.Since(start); held > 10*time.Second {
		t.Fatalf("stop did not end the poll early (held %v)", held)
	}
}

// TestBackoffJitterBounds pins the backoff envelope: every delay lands
// in [base/2·2^k, base·2^k] capped, so pollers that failed together
// spread out.
func TestBackoffJitterBounds(t *testing.T) {
	base, limit := 100*time.Millisecond, 800*time.Millisecond
	rng := xrand.New(1)
	for attempt := 1; attempt <= 6; attempt++ {
		want := min(base<<uint(attempt-1), limit)
		for i := 0; i < 50; i++ {
			if d := Backoff(base, limit, attempt, rng); d < want/2 || d > want {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
}

// FuzzVersionFrame feeds arbitrary bytes to the version frame decoder.
// Oracle: it fails, or it accepts a frame within Pull's read bound that
// re-encodes to the same bytes and carries only finite values. The seed corpus,
// testdata/fuzz/FuzzVersionFrame, keeps the frames of the two layouts
// this one replaced, the cluster pull's (pull-*) and replication's
// (replicate-*); each still gets a verdict. The seeds below are their
// cases in this layout.
func FuzzVersionFrame(f *testing.F) {
	const dim = 4
	for _, seed := range [][]byte{
		AppendVersion(nil, &Header{Seq: 3, Epoch: 2, Iters: 1, Loss: 0.5}, []float64{1, 2, 3, 4}),
		AppendVersion(nil, &Header{Seq: 3, Published: 1, Live: true, Done: true, Loss: -1,
			Algo: "is-asgd", Objective: "logistic-l1", Dataset: "kdda", DType: model.PrecisionF32}, []float64{1, 2, 3, 4}),
		AppendVersion(nil, &Header{Seq: 3, Loss: -1}, nil), // nothing newer
		patch(head(1, 8, 0), 5, 2),                         // done byte 2
		patch(head(1, 8, 0), 6, f64s(nil, math.NaN())...),  // NaN loss
		f64s(head(1, 8, 3), 1, 2, 3),                       // count neither 0 nor Dim
		head(1, 8, 1<<40),                                  // count lie
		f64s(head(1, 8, dim), 1, 2, 3),                     // truncated
		append(f32s(head(1, 4, dim), 1, 2, 3, 4), 0),       // trailing byte
		f64s(head(1, 8, dim), 1, math.NaN(), 3, 4),
		f64s(head(1, 8, dim), 1, 2, math.Inf(1), 4),
		f32s(head(1, 4, dim), float32(math.Inf(-1)), 2, 3, 4),
		f32s(head(1, 4, dim), 1, 2, 3, float32(math.NaN())),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		h, w, err := DecodeVersion(b, dim, nil)
		if err != nil {
			return
		}
		if len(b) > maxHead+F64*dim {
			t.Fatalf("accepted a %d-byte frame over Pull's %d-byte read bound", len(b), maxHead+F64*dim)
		}
		if j := model.FirstNonFinite(w); j >= 0 || math.IsNaN(h.Loss) || math.IsInf(h.Loss, 0) {
			t.Fatalf("accepted non-finite value %d or loss %g", j, h.Loss)
		}
		if again := AppendVersion(nil, &h, w); !bytes.Equal(again, b) {
			t.Fatalf("re-encoding differs:\n  in % x\n out % x", b, again)
		}
	})
}
