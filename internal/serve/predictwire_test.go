package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/isasgd/isasgd/internal/snapshot"
)

// longPredictBody is a well-formed shorthand body longer than the
// scratch bound, so it streams to the reference decoder.
func longPredictBody() string {
	var idx, val strings.Builder
	for i := 0; idx.Len()+val.Len() <= predictBodyBound; i++ {
		if i > 0 {
			idx.WriteByte(',')
			val.WriteByte(',')
		}
		fmt.Fprintf(&idx, "%d", i%8)
		fmt.Fprintf(&val, "%g", 0.25+float64(i%5))
	}
	return `{"indices":[` + idx.String() + `],"values":[` + val.String() + `]}`
}

// predictWireModel publishes the model the wire tests score against:
// eight weights spanning encoding/json's float formats, and a name that
// only json.Marshal quotes.
func predictWireModel(t testing.TB, reg *Registry, name string) {
	t.Helper()
	w := []float64{1, -2.5, 1e-7, 3e21, 1e308, -1e308, 0.1, math.Copysign(0, -1)}
	if err := reg.Publish(&Model{Name: name, Store: snapshot.Of(3, 1234, w)}); err != nil {
		t.Fatal(err)
	}
}

// sameRequest fails unless got and want hold bitwise the same numbers,
// and agree on whether Instances is present.
func sameRequest(t *testing.T, got, want PredictRequest) {
	t.Helper()
	if (got.Instances == nil) != (want.Instances == nil) || len(got.Instances) != len(want.Instances) {
		t.Fatalf("instances: got %d (nil %v), want %d (nil %v)",
			len(got.Instances), got.Instances == nil, len(want.Instances), want.Instances == nil)
	}
	sameInstance(t, "shorthand", Instance{Indices: got.Indices, Values: got.Values},
		Instance{Indices: want.Indices, Values: want.Values})
	for i := range got.Instances {
		sameInstance(t, fmt.Sprintf("instance %d", i), got.Instances[i], want.Instances[i])
	}
}

func sameInstance(t *testing.T, what string, got, want Instance) {
	t.Helper()
	if len(got.Indices) != len(want.Indices) || len(got.Values) != len(want.Values) {
		t.Fatalf("%s: got %d/%d entries, want %d/%d", what,
			len(got.Indices), len(got.Values), len(want.Indices), len(want.Values))
	}
	for k := range got.Indices {
		if got.Indices[k] != want.Indices[k] {
			t.Fatalf("%s: index %d = %d, want %d", what, k, got.Indices[k], want.Indices[k])
		}
	}
	for k := range got.Values {
		if math.Float64bits(got.Values[k]) != math.Float64bits(want.Values[k]) {
			t.Fatalf("%s: value %d = %v, want %v", what, k, got.Values[k], want.Values[k])
		}
	}
}

// FuzzPredictRequest is the differential spec of the predict wire.
// Decoder oracle: decodePredict (fast path, or fallback) and the
// decodeJSON reference give the same status; on a reject the same error
// body, on an accept bitwise the same request. Encoder oracle: whatever
// the accepted request scores to, appendPredictResponse writes exactly
// writeJSON's bytes.
func FuzzPredictRequest(f *testing.F) {
	for _, seed := range []string{
		`{"indices":[3,100],"values":[1,2]}`,
		`{"indices":[-1],"values":[1]}`,
		`{"indices":[0],"values":[NaN]}`,
		`{"indices":[0],"values":[1e309]}`,
		`{"indices":[0,6],"values":[-0,1]}`,
		`{"indices":[2],"values":[1e-7]}`,
		`{"indices":[0],"values":[1e21]}`,
		`{"indices":[01],"values":[1]}`,
		`{"indices":[0],"indices":[1],"values":[1]}`,
		`{"Indices":[0],"indices":[1],"values":[1]}`,
		`null`,
		`[]`,
		`{"indices":[0],"values":[1]} trailing garbage`,
		`{"instances":[{"indices":[0,1],"values":[1,2]},{"indices":[2],"values":[3]},{},{"values":[],"indices":[]}]}`,
		longPredictBody(),
		" \t{ \"values\" : [ 0.5 , -2E-3 ] , \"indices\" : [ 6 , 1 ] } \r\n",
		`{"instances":[]}`,
		`{"instances":null,"indices":[1],"values":[2]}`,
		`{"indices":[0],"values":[1]}`,
		`{"indices":[1.0],"values":[1]}`,
		`{"indices":[9223372036854775808],"values":[1]}`,
		`{"indices":[4],"values":[1e308]}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	reg := NewRegistry()
	names := []string{"m", "m<&> é"}
	for _, name := range names {
		predictWireModel(f, reg, name)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ref := httptest.NewRecorder()
		var want PredictRequest
		wantOK := decodeJSON(ref, bytes.NewReader(body), &want)

		sc := getPredictScratch()
		defer putPredictScratch(sc)
		got := httptest.NewRecorder()
		var req PredictRequest
		ok := decodePredict(got, iotest.HalfReader(bytes.NewReader(body)), sc, &req)
		if ok != wantOK || got.Code != ref.Code || got.Body.String() != ref.Body.String() {
			t.Fatalf("body %q: decodePredict answered %v %d %q, decodeJSON %v %d %q",
				body, ok, got.Code, got.Body, wantOK, ref.Code, ref.Body)
		}
		if !ok {
			return
		}
		sameRequest(t, req, want)

		batch := req.Instances
		if batch == nil && len(req.Indices)+len(req.Values) > 0 {
			batch = []Instance{{Indices: req.Indices, Values: req.Values}}
		}
		resp, err := reg.Predict(names[len(body)%len(names)], batch)
		if err != nil {
			return
		}
		defer resp.Release()
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, resp)
		if enc := appendPredictResponse(nil, resp); !bytes.Equal(enc, rec.Body.Bytes()) {
			t.Fatalf("body %q: encoder wrote\n%s\nwriteJSON wrote\n%s", body, enc, rec.Body)
		}
	})
}

// TestPredictFastPath pins which bodies the byte-level decoder takes
// itself, so the fuzz target's fallback cannot hide a dead fast path.
func TestPredictFastPath(t *testing.T) {
	fast := []string{
		`{"indices":[0,3],"values":[1,-0.5]}`,
		`{"values":[1e-7,-0,2.5E+3],"indices":[0,1,2]}`,
		" {\n\t\"indices\" : [ ] , \"values\":[]\r}\n ",
		`{}`,
		`{"instances":[]}`,
		`{"instances":[{"indices":[1],"values":[2]},{},{"values":[3]}],"indices":[4]}`,
		`{"indices":[-0,-7,9223372036854775807],"values":[1.7976931348623157e308,5e-324]}`,
	}
	slow := []string{
		`{"indices":[0],"values":[1]} x`,
		`{"indices":[0],"values":[1]}}`,
		`{"Indices":[0],"values":[1]}`,
		`{"ind\u0069ces":[0],"values":[1]}`,
		`{"indices":[0],"indices":[0],"values":[1]}`,
		`{"instances":[{"indices":[0],"indices":[0]}]}`,
		`{"instances":[{"instances":[]}]}`,
		`{"indices":null,"values":[1]}`,
		`{"instances":[null]}`,
		`{"indices":[1.0],"values":[1]}`,
		`{"indices":[1e2],"values":[1]}`,
		`{"indices":[9223372036854775808],"values":[1]}`,
		`{"indices":[0],"values":[1e309]}`,
		`{"indices":[01],"values":[1]}`,
		`{"indices":[0],"values":[.5]}`,
		`{"indices":[0],"values":[1.]}`,
		`{"indices":[0],"values":[NaN]}`,
		`{"indices":[0,],"values":[1]}`,
		`{"indices":[0],"values":[1],}`,
		`{"model":"m"}`,
		"\ufeff{}",
		`null`,
		`[]`,
		``,
	}
	sc := getPredictScratch()
	defer putPredictScratch(sc)
	for _, body := range fast {
		var got, want PredictRequest
		if !sc.parse([]byte(body), &got) {
			t.Fatalf("%q: fell back, want the fast path", body)
		}
		if !decodeJSON(httptest.NewRecorder(), strings.NewReader(body), &want) {
			t.Fatalf("%q: the reference rejects it", body)
		}
		sameRequest(t, got, want)
	}
	for _, body := range slow {
		var got PredictRequest
		if sc.parse([]byte(body), &got) {
			t.Errorf("%q: took the fast path, want the fallback", body)
		}
	}
}

// TestAppendPredictResponse checks the encoder against writeJSON on the
// edges of encoding/json's formats: exponent thresholds, -0, the
// smallest and largest floats, nil and empty predictions, and names it
// escapes.
func TestAppendPredictResponse(t *testing.T) {
	scores := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21,
		0.1, 123456789, 1.5e-300, 5e-324, math.MaxFloat64, 1e-10, 2.5e-8}
	preds := make([]Prediction, len(scores))
	for i, s := range scores {
		preds[i] = Prediction{Score: s, Label: math.Copysign(1, s)}
	}
	for _, name := range []string{"m", "a.b_c-9", "a<b>&c", "é", " ", "q\"\\", "\x01\x7f", "\xff"} {
		for _, p := range [][]Prediction{nil, {}, preds[:1], preds} {
			resp := &PredictResponse{Model: name, Seq: math.MaxUint64, Epoch: -3, Iters: 7, Live: len(p) == 1, Predictions: p}
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, resp)
			if got := appendPredictResponse(nil, resp); !bytes.Equal(got, rec.Body.Bytes()) {
				t.Fatalf("name %q, %d predictions: encoder wrote\n%s\nwriteJSON wrote\n%s", name, len(p), got, rec.Body)
			}
		}
	}
}

// TestPredictScoreNotFinite: a score that overflows is a 400 naming the
// instance, whichever decoder read the body.
func TestPredictScoreNotFinite(t *testing.T) {
	ts, mgr, _ := testServer(t, 1)
	predictWireModel(t, mgr.Registry(), "big")
	for _, tc := range []struct{ body, want string }{
		{`{"indices":[4],"values":[1e308]}`, "instance 0: score is not finite"},
		{`{"instances":[{"indices":[0],"values":[1]},{"indices":[4,4],"values":[1e308,1e308]}]}`,
			"instance 1: score is not finite"},
		{`{"indices":[4],"values":[1],"values":[2]}`, "instance 0: score is not finite"},
	} {
		resp, err := http.Post(ts.URL+"/v1/models/big/predict", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), tc.want) {
			t.Errorf("%s: got %d %q, want 400 %q", tc.body, resp.StatusCode, b, tc.want)
		}
	}
}

// TestTrailingBytes: predict and job-submission bodies are exactly one
// JSON value; only whitespace may follow it.
func TestTrailingBytes(t *testing.T) {
	ts, mgr, _ := testServer(t, 1)
	predictWireModel(t, mgr.Registry(), "m")
	const trailing = "data after the JSON value"
	for _, tc := range []struct {
		path, body string
		code       int
		trailing   bool
	}{
		{"/v1/models/m/predict", `{"indices":[0],"values":[1]} trailing garbage`, http.StatusBadRequest, true},
		{"/v1/models/m/predict", `{"indices":[0],"values":[1]}}`, http.StatusBadRequest, true},
		{"/v1/models/m/predict", `{"indices":[0],"values":[1]} {}`, http.StatusBadRequest, true},
		{"/v1/models/m/predict", `{"indices":[0],"indices":[0],"values":[1]} 1`, http.StatusBadRequest, true},
		{"/v1/models/m/predict", longPredictBody() + " x", http.StatusBadRequest, true},
		{"/v1/models/m/predict", "{\"indices\":[0],\"values\":[1]} \r\n\t", http.StatusOK, false},
		{"/v1/jobs", `{"dataset":"bogus"} x`, http.StatusBadRequest, true},
		{"/v1/jobs", `{"dataset":"bogus"}{"dataset":"small"}`, http.StatusBadRequest, true},
		{"/v1/jobs", "{\"dataset\":\"bogus\"}\n", http.StatusBadRequest, false},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || strings.Contains(string(b), trailing) != tc.trailing {
			t.Errorf("%s %.60q: got %d %q, want %d (trailing-data error %v)",
				tc.path, tc.body, resp.StatusCode, b, tc.code, tc.trailing)
		}
	}
}
