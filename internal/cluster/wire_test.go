package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/model"
)

// rawFrame assembles a frame field by field, so a test can lie in any
// of them.
type rawFrame struct{ b []byte }

func frameOf(b ...byte) rawFrame { return rawFrame{b: b} }

// pushHead starts a push frame: the header, width byte and count.
func pushHead(worker, seq, updates uint64, width byte, count uint64) rawFrame {
	return rawFrame{}.uv(worker, seq, updates).raw(width).uv(count)
}

// pullHead starts a pull frame: the header, width byte and count.
func pullHead(seq uint64, done byte, loss float64, width byte, count uint64) rawFrame {
	return rawFrame{}.uv(seq, 0, 0).raw(done).f64(loss).raw(width).uv(count)
}

func (f rawFrame) raw(b ...byte) rawFrame { f.b = append(f.b, b...); return f }

func (f rawFrame) uv(vs ...uint64) rawFrame {
	for _, v := range vs {
		f.b = binary.AppendUvarint(f.b, v)
	}
	return f
}

func (f rawFrame) f64(vs ...float64) rawFrame {
	for _, v := range vs {
		f.b = binary.LittleEndian.AppendUint64(f.b, math.Float64bits(v))
	}
	return f
}

func (f rawFrame) f32(vs ...float32) rawFrame {
	for _, v := range vs {
		f.b = binary.LittleEndian.AppendUint32(f.b, math.Float32bits(v))
	}
	return f
}

// postRaw posts body to the push endpoint and returns the status.
func postRaw(t *testing.T, srv *httptest.Server, body []byte) int {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/cluster/push", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// sendPush encodes req as a frame and pushes it.
func sendPush(cl *rpcClient, req PushRequest) (int, PushResponse, error) {
	status, resp, _, err := cl.push(context.Background(), appendPush(nil, &req))
	return status, resp, err
}

// TestPullFrameRoundTrip pins the pull codec: the dense vector decodes
// into the caller's buffer at either width, a frame with count 0 carries
// only the header, and a count that is neither 0 nor Dim is rejected.
func TestPullFrameRoundTrip(t *testing.T) {
	w := []float64{0.5, -1.25, 1e-300, math.MaxFloat64}
	for _, wire := range []string{WireF64, WireF32} {
		in := PullResponse{Seq: 9, Epoch: 8, Iters: 7, Done: true, Loss: 0.25, Wire: wire, Weights: w}
		b := appendPull(nil, &in)
		if len(b) > maxPullFrame(len(w), wire) {
			t.Fatalf("%s: %d-byte frame over its bound %d", wire, len(b), maxPullFrame(len(w), wire))
		}
		dst := make([]float64, len(w))
		got, err := decodePull(b, dst)
		if wire == WireF32 {
			// MaxFloat64 narrows to +Inf: the decoder refuses it.
			if err == nil {
				t.Fatal("f32 frame narrowed to Inf accepted")
			}
			in.Weights = w[:3]
			dst = dst[:3]
			if got, err = decodePull(appendPull(nil, &in), dst); err != nil {
				t.Fatal(err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		if &got.Weights[0] != &dst[0] {
			t.Fatalf("%s: weights not decoded into the caller's buffer", wire)
		}
		for j, v := range in.Weights {
			if want := float64(float32(v)); wire == WireF32 && got.Weights[j] != want {
				t.Fatalf("f32: coordinate %d = %g, want %g", j, got.Weights[j], want)
			} else if wire == WireF64 && got.Weights[j] != v {
				t.Fatalf("f64: coordinate %d = %g, want %g", j, got.Weights[j], v)
			}
		}
		if got.Seq != 9 || got.Epoch != 8 || got.Iters != 7 || !got.Done || got.Loss != 0.25 || got.Wire != wire {
			t.Fatalf("%s: header decoded as %+v", wire, got)
		}
	}
	empty, err := decodePull(appendPull(nil, &PullResponse{Seq: 3, Loss: -1}), make([]float64, 4))
	if err != nil || empty.Weights != nil || empty.Seq != 3 {
		t.Fatalf("count-0 frame decoded as %+v, %v", empty, err)
	}
	if _, err := decodePull(pullHead(3, 0, 0, 8, 2).f64(1, 2).b, make([]float64, 4)); err == nil {
		t.Fatal("pull of 2 coordinates into a 4-coordinate model accepted")
	}
}

// TestPullReadBound pins the worker's read bound: a pull is read no
// further than the largest frame of the model's Dim at the requested
// width, a longer body is refused before it is decoded, and a shorter or
// padded one fails decoding.
func TestPullReadBound(t *testing.T) {
	const dim = 64
	full := appendPull(nil, &PullResponse{Seq: 2, Weights: make([]float64, dim)})
	for _, tc := range []struct {
		name string
		body []byte
		ok   bool
	}{
		{"exact frame", full, true},
		{"truncated frame", full[:len(full)-1], false},
		{"trailing byte", append(full[:len(full):len(full)], 0), false},
		{"one byte over the bound", make([]byte, maxPullFrame(dim, WireF64)+1), false},
		{"f64 frame to an f32 reader", nil, false},
	} {
		body, wire := tc.body, WireF64
		if body == nil {
			body, wire = full, WireF32 // 8·dim value bytes exceed the 4·dim bound
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeFrame(w, body)
		}))
		cl := &rpcClient{hc: srv.Client(), base: srv.URL, policy: RetryPolicy{Max: -1}.withDefaults(),
			rng: newTestRand(), log: quietLogger()}
		_, _, err := cl.pull(context.Background(), "/v1/cluster/pull", time.Second, make([]float64, dim), wire)
		srv.Close()
		if (err == nil) != tc.ok {
			t.Fatalf("%s: err %v, want ok=%v", tc.name, err, tc.ok)
		}
	}

	if b, err := readLimited(strings.NewReader("abc"), 3); err != nil || string(b) != "abc" {
		t.Fatalf("read at the bound: %q, %v", b, err)
	}
	if _, err := readLimited(strings.NewReader("abcd"), 3); err == nil {
		t.Fatal("read past the bound accepted")
	}
}

// TestPushDeclaredLengthNotAllocated declares the largest push body the
// model accepts and sends a few bytes of it. The body is outside input,
// so the coordinator's read buffer must grow only with the bytes that
// arrive, never to the declared length up front, and the short body is
// rejected.
func TestPushDeclaredLengthNotAllocated(t *testing.T) {
	const dim = 1 << 20
	c, srv := startCoordinator(t, CoordinatorConfig{Dim: dim, PollTimeout: time.Second})
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := pushHead(0, 1, 0, 8, 4).uv(1).b
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fmt.Fprintf(conn, "POST /v1/cluster/push HTTP/1.1\r\nHost: coordinator\r\n"+
		"Content-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", c.maxPush)
	conn.Write(body)
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("short body got status %d, want 422", resp.StatusCode)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(c.maxPush)/4 {
		t.Fatalf("a %d-byte body declared as %d allocated %d bytes", len(body), c.maxPush, grew)
	}
	if st := c.Stats(); st.Bad != 1 || st.Seq != 1 {
		t.Fatalf("short body not rejected cleanly: %+v", st)
	}
}

// TestPullAbove64MiB pulls a model whose frame is larger than 64 MiB —
// the size at which a fixed response cap used to cut pulls short — and
// checks that every coordinate arrives.
func TestPullAbove64MiB(t *testing.T) {
	if testing.Short() || model.RaceEnabled {
		t.Skip("moves a 68 MB frame")
	}
	const dim = 8_500_000 // 8 bytes each: 68 MB
	c, srv := startCoordinator(t, CoordinatorConfig{Dim: dim, PollTimeout: time.Second})
	cl := &rpcClient{hc: srv.Client(), base: srv.URL, policy: RetryPolicy{Max: -1}.withDefaults(),
		rng: newTestRand(), log: quietLogger()}
	if _, _, err := sendPush(cl, PushRequest{Seq: 1, Idx: []int{0, dim - 1}, Val: []float64{1.5, -2.5}}); err != nil {
		t.Fatal(err)
	}
	pr, _, err := cl.pull(context.Background(), "/v1/cluster/pull?since=0", 30*time.Second, make([]float64, dim), WireF64)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Seq != c.Store().Seq() || len(pr.Weights) != dim || pr.Weights[0] != 1.5 || pr.Weights[dim-1] != -2.5 {
		t.Fatalf("pulled seq %d, %d coordinates, ends %g/%g", pr.Seq, len(pr.Weights), pr.Weights[0], pr.Weights[dim-1])
	}
}

// FuzzPushFrame feeds arbitrary bytes to the push decoder. Oracle: an
// error, or a request that re-encodes to the same bytes, has strictly
// increasing indices below Dim, and carries only finite values.
func FuzzPushFrame(f *testing.F) {
	const dim = 300
	for _, seed := range [][]byte{
		appendPush(nil, &PushRequest{Worker: 1, Seq: 2, Updates: 3, Idx: []int{0, 5, 299}, Val: []float64{1, -2, 3}}),
		appendPush(nil, &PushRequest{Seq: 7, Wire: WireF32, Idx: []int{1, 200}, Val: []float64{0.5, -0.25}}),
		appendPush(nil, &PushRequest{Seq: 1, Updates: 600}),                         // count 0
		pushHead(0, 1, 0, 8, dim+1).uv(1).f64(1).b,                                  // count over Dim
		pushHead(0, 1, 0, 8, 5).uv(1).f64(1).b,                                      // count over body
		pushHead(0, 1, 0, 4, 2).uv(1, 0).f32(1, 1).b,                                // zero gap
		pushHead(0, 1, 0, 8, 1).uv(dim + 1).f64(1).b,                                // gap past Dim
		pushHead(0, 1, 0, 8, 1).uv(1<<64 - 1).f64(1).b,                              // gap overflowing int
		frameOf(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01).b, // varint over 64 bits
		pushHead(0, 1, 0, 8, 1).uv(1).f64(1).b[:12],                                 // truncated
		pushHead(0, 1, 0, 8, 1).uv(1).f64(1).raw(0).b,                               // trailing byte
		pushHead(0, 1, 0, 8, 1).uv(1).f64(math.NaN()).b,
		pushHead(0, 1, 0, 8, 1).uv(1).f64(math.Inf(-1)).b,
		pushHead(0, 1, 0, 4, 1).uv(1).f32(float32(math.NaN())).b,
		pushHead(0, 1, 0, 4, 1).uv(1).f32(float32(math.Inf(1))).b,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := decodePush(b, dim)
		if err != nil {
			return
		}
		if j := model.FirstNonFinite(req.Val); j >= 0 {
			t.Fatalf("accepted non-finite value at %d", j)
		}
		for k, j := range req.Idx {
			if j >= dim || (k > 0 && j <= req.Idx[k-1]) || j < 0 {
				t.Fatalf("accepted index %d at pair %d: %v", j, k, req.Idx)
			}
		}
		if again := appendPush(nil, &req); !bytes.Equal(again, b) {
			t.Fatalf("re-encoding differs:\n  in % x\n out % x", b, again)
		}
	})
}

// FuzzPullFrame feeds arbitrary bytes to the pull decoder. Oracle: an
// error, or a response within the read bound that re-encodes to the same
// bytes and carries only finite values.
func FuzzPullFrame(f *testing.F) {
	const dim = 4
	for _, seed := range [][]byte{
		appendPull(nil, &PullResponse{Seq: 3, Epoch: 2, Iters: 1, Loss: 0.5, Weights: []float64{1, 2, 3, 4}}),
		appendPull(nil, &PullResponse{Seq: 3, Done: true, Loss: -1, Wire: WireF32, Weights: []float64{1, 2, 3, 4}}),
		appendPull(nil, &PullResponse{Seq: 3, Loss: -1}), // nothing newer
		pullHead(1, 0, 0, 8, 3).f64(1, 2, 3).b,           // count neither 0 nor Dim
		pullHead(1, 0, 0, 8, 1<<40).b,                    // count lie
		pullHead(1, 2, 0, 8, 0).b,                        // done byte 2
		pullHead(1, 0, math.NaN(), 8, 0).b,               // NaN loss
		pullHead(1, 0, 0, 8, dim).f64(1, 2, 3).b,         // truncated
		pullHead(1, 0, 0, 4, dim).f32(1, 2, 3, 4).raw(0).b,
		pullHead(1, 0, 0, 8, dim).f64(1, math.NaN(), 3, 4).b,
		pullHead(1, 0, 0, 8, dim).f64(1, 2, math.Inf(1), 4).b,
		pullHead(1, 0, 0, 4, dim).f32(float32(math.Inf(-1)), 2, 3, 4).b,
		pullHead(1, 0, 0, 4, dim).f32(1, 2, 3, float32(math.NaN())).b,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		pr, err := decodePull(b, make([]float64, dim))
		if err != nil {
			return
		}
		if len(b) > maxPullFrame(dim, pr.Wire) {
			t.Fatalf("accepted a %d-byte frame over the %d-byte bound", len(b), maxPullFrame(dim, pr.Wire))
		}
		if j := model.FirstNonFinite(pr.Weights); j >= 0 || math.IsNaN(pr.Loss) || math.IsInf(pr.Loss, 0) {
			t.Fatalf("accepted non-finite weight %d or loss %g", j, pr.Loss)
		}
		if again := appendPull(nil, &pr); !bytes.Equal(again, b) {
			t.Fatalf("re-encoding differs:\n  in % x\n out % x", b, again)
		}
	})
}
