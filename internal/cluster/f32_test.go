package cluster

import (
	"context"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestPushFrameRoundTrip pins the push codec at both widths: a frame
// decodes to the request it encodes, f64 values bit-exactly and f32
// values as their exact float32 narrowing; re-encoding into a reused
// buffer does not reallocate; and a truncated frame is rejected.
func TestPushFrameRoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1, 0.1, 1e-40, 3.4e38, math.Pi, -2.5e-7}
	idx := []int{0, 1, 2, 3, 127, 128, 16383, 16384}
	for _, wire := range []string{WireF64, WireF32} {
		req := PushRequest{Worker: 3, Seq: 1 << 40, Updates: 12345, Wire: wire, Idx: idx, Val: vals}
		b := appendPush(nil, &req)
		got, err := decodePush(b, 16385)
		if err != nil {
			t.Fatalf("%s: %v", wire, err)
		}
		if got.Worker != 3 || got.Seq != 1<<40 || got.Updates != 12345 || got.Wire != wire {
			t.Fatalf("%s: header decoded as %+v", wire, got)
		}
		for k, v := range vals {
			want := v
			if wire == WireF32 {
				want = float64(float32(v))
			}
			if got.Idx[k] != idx[k] || got.Val[k] != want {
				t.Fatalf("%s: pair %d decoded as (%d, %g), want (%d, %g)", wire, k, got.Idx[k], got.Val[k], idx[k], want)
			}
		}
		if again := appendPush(b[:0], &req); &again[0] != &b[0] {
			t.Fatalf("%s: re-encoding reallocated despite sufficient capacity", wire)
		}
		if _, err := decodePush(b[:len(b)-1], 16385); err == nil {
			t.Fatalf("%s: truncated frame accepted", wire)
		}
	}
}

// TestParseWire pins the encoding-name surface: empty selects f64, the
// two names normalize, anything else is rejected.
func TestParseWire(t *testing.T) {
	for _, tc := range []struct{ in, want string }{{"", WireF64}, {"f64", WireF64}, {"f32", WireF32}} {
		got, err := parseWire(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("parseWire(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"f16", "F32", "float32", "base64"} {
		if _, err := parseWire(bad); err == nil {
			t.Fatalf("parseWire(%q) accepted", bad)
		}
	}
}

// TestPullWireF32 exercises the pull endpoint's width switch: an
// ?wire=f32 pull carries 4-byte values, bit-exactly the narrowing of the
// authoritative weights; an unknown width name is a 400, not a silent
// f64 fallback.
func TestPullWireF32(t *testing.T) {
	ds, _ := testCorpus(t)
	c, srv := startCoordinator(t, CoordinatorConfig{Dim: ds.Dim(), PollTimeout: time.Second})
	w0 := make([]float64, ds.Dim())
	for j := range w0 {
		w0[j] = 0.1*float64(j) - 3.7
	}
	if err := c.ApplyModel(w0); err != nil {
		t.Fatal(err)
	}

	cl := &rpcClient{hc: srv.Client(), base: srv.URL, policy: RetryPolicy{Max: -1}.withDefaults(),
		rng: newTestRand(), log: quietLogger()}
	pr, _, err := cl.pull(context.Background(), "worker=0&wire=f32", 0, 3*time.Second, make([]float64, ds.Dim()))
	if err != nil {
		t.Fatalf("f32 pull: %v", err)
	}
	if pr.DType != WireF32 {
		t.Fatalf("f32 pull answered at width %q", pr.DType)
	}
	if len(pr.Weights) != ds.Dim() {
		t.Fatalf("f32 pull carried %d coordinates, want %d", len(pr.Weights), ds.Dim())
	}
	for j, v := range pr.Weights {
		if v != float64(float32(w0[j])) {
			t.Fatalf("coordinate %d: pulled %g, want %g", j, v, float32(w0[j]))
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/cluster/pull?wire=bf16")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus wire name: status %d, want 400", resp.StatusCode)
	}
}

// TestPushValidationF32 sweeps malformed f32 push frames: NaN and Inf
// must be caught on the float32 bit patterns (widening keeps them
// non-finite, so nothing is laundered), and shape violations — a torn
// value, a count the values do not fill, a duplicate index — are all
// 422 without touching the model. A push carrying both widths at once
// cannot be expressed: the frame has one width byte.
func TestPushValidationF32(t *testing.T) {
	ds, _ := testCorpus(t)
	c, srv := startCoordinator(t, CoordinatorConfig{Dim: ds.Dim(), PollTimeout: time.Second})
	cases := []struct {
		name  string
		frame []byte
	}{
		{"nan delta", pushHead(0, 1, 0, 4, 1).uv(1).f32(float32(math.NaN())).b},
		{"inf delta", pushHead(0, 1, 0, 4, 1).uv(1).f32(float32(math.Inf(1))).b},
		{"-inf delta", pushHead(0, 1, 0, 4, 1).uv(1).f32(float32(math.Inf(-1))).b},
		{"torn value", pushHead(0, 1, 0, 4, 1).uv(1).raw(1, 2, 3).b},
		{"count mismatch", pushHead(0, 1, 0, 4, 2).uv(1, 1).f32(1).b},
		{"duplicate index", pushHead(0, 1, 0, 4, 2).uv(1, 0).f32(1, 1).b},
	}
	for _, tc := range cases {
		if status := postRaw(t, srv, tc.frame); status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422", tc.name, status)
		}
	}
	if st := c.Stats(); st.Bad != int64(len(cases)) || st.Applied != 0 {
		t.Fatalf("stats after f32 malformed sweep: %+v (want %d bad)", st, len(cases))
	}
	if c.Store().Seq() != 1 {
		t.Fatalf("malformed f32 pushes advanced seq to %d", c.Store().Seq())
	}

	// A well-formed f32 push lands with the exact widened-float32 delta.
	cl := &rpcClient{hc: srv.Client(), base: srv.URL, policy: RetryPolicy{Max: -1}.withDefaults(),
		rng: newTestRand(), log: quietLogger()}
	status, pr, err := sendPush(cl, PushRequest{Seq: 1, Wire: WireF32, Idx: []int{2}, Val: []float64{0.1}, Updates: 3})
	if err != nil || status != http.StatusOK || !pr.Applied {
		t.Fatalf("valid f32 push: status %d err %v applied %v", status, err, pr.Applied)
	}
	if got, want := c.Store().Load().Weights[2], float64(float32(0.1)); got != want {
		t.Fatalf("f32 push applied %g, want %g", got, want)
	}
}

// TestPushFrameLayout pins the frame byte for byte against the layout
// wire.go documents, so a change to the encoding cannot pass unnoticed.
func TestPushFrameLayout(t *testing.T) {
	got := appendPush(nil, &PushRequest{Worker: 1, Seq: 300, Updates: 2, Wire: WireF32,
		Idx: []int{0, 130}, Val: []float64{1, -2}})
	want := []byte{
		1,          // worker
		0xac, 0x02, // seq 300
		2,          // updates
		4,          // width
		2,          // count
		1,          // gap: index 0
		0x82, 0x01, // gap 130: index 130
		0x00, 0x00, 0x80, 0x3f, // float32 1
		0x00, 0x00, 0x00, 0xc0, // float32 -2
	}
	if string(got) != string(want) {
		t.Fatalf("push frame\n got % x\nwant % x", got, want)
	}
}

// TestClusterConvergesF32Wire is the end-to-end gate for the narrow
// width: two workers on the f32 wire — narrowed pulls, narrowed pushed
// deltas — must still drive the global model to the same loss target
// as the float64 wire.
func TestClusterConvergesF32Wire(t *testing.T) {
	ds, obj := testCorpus(t)
	c, srv := startCoordinator(t, CoordinatorConfig{
		Dim: ds.Dim(), EvalData: ds, Obj: obj,
		TargetLoss: 0.45, MaxUpdates: 2_000_000,
		PollTimeout: time.Second, Log: quietLogger(),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const n = 2
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		cfg := workerCfg(ds, obj, i, n, srv.URL)
		cfg.Wire = WireF32
		w, err := NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) { defer wg.Done(); errs[i] = w.Run(ctx) }(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	st := c.Stats()
	if !st.Reached {
		t.Fatalf("f32-wire cluster never reached target: %+v", st)
	}
	if st.Applied == 0 || st.Updates == 0 {
		t.Fatalf("no work accounted: %+v", st)
	}
}

// TestWorkerRejectsBadWire pins construction-time validation of the
// encoding name.
func TestWorkerRejectsBadWire(t *testing.T) {
	ds, obj := testCorpus(t)
	cfg := workerCfg(ds, obj, 0, 1, "http://127.0.0.1:1")
	cfg.Wire = "f16"
	if _, err := NewWorker(cfg); err == nil {
		t.Fatal("unknown wire encoding accepted")
	}
}
