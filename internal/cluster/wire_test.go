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

	"github.com/isasgd/isasgd/internal/frame"
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

// writeVersion answers a pull with one version frame, as a fake
// coordinator.
func writeVersion(w http.ResponseWriter, h frame.Header, weights []float64) {
	w.Header().Set("Content-Type", frame.ContentType)
	w.Write(frame.AppendVersion(nil, &h, weights)) //nolint:errcheck
}

// TestReadLimited pins the push verdict's read bound: a body at the
// bound is read whole, a longer one is refused.
func TestReadLimited(t *testing.T) {
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
	pr, _, err := cl.pull(context.Background(), "wire=f64", 0, 30*time.Second, make([]float64, dim))
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
