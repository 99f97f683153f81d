package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"github.com/isasgd/isasgd/internal/frame"
	"github.com/isasgd/isasgd/internal/model"
)

// Weights and deltas travel as one binary frame: the body of a
// POST /v1/cluster/push, and the 200 response of a GET /v1/cluster/pull.
// Everything else (push verdicts, /v1/cluster/stats, errors) is small
// JSON. The codec (varints, width byte, values, and the fail-closed
// Reader) is internal/frame, shared with snapshot replication; this
// file declares only the two headers:
//
//	push frame                        pull frame
//	  worker   uvarint                  seq     uvarint
//	  seq      uvarint  base version    epoch   uvarint  applied pushes
//	  updates  uvarint  SGD updates     iters   uvarint  worker updates
//	                                    done    1 byte   0 or 1
//	                                    loss    8 bytes  float64, finite
//	  width    1 byte   8 (WireF64) or 4 (WireF32)
//	  count    uvarint  push: pairs, ≤ Dim; pull: 0 or Dim
//	  gaps     count uvarints ≥ 1       (none: a pull is dense)
//	  values   count × width bytes
//
// A push carries the coordinates that moved in the round as index gaps:
// index k is gap_0 + … + gap_k − 1, so every gap ≥ 1 makes the indices
// strictly increasing, and a duplicate index cannot be expressed. A pull
// carries count 0 when nothing is newer than the caller's since seq, and
// the whole dense vector otherwise.
//
// Both frames are outside input, and the decoders fail closed on
// frame.Reader's rules. On top of them they bound count by Dim and by
// the bytes left before allocating, and reject zero gaps and indices
// ≥ Dim. So every accepted frame re-encodes to the same bytes.
//
// WireF64 ships the weights' exact bits. WireF32 halves the value bytes;
// its narrowing (~1e-7 relative) is one more bounded perturbation of the
// kind the asynchronous analysis already tolerates. Widening an f32
// value back is exact, so a pulled f32 vector is exactly the base the
// worker's next delta is computed against.

// Wire value widths (WorkerConfig.Wire, the pull endpoint's ?wire=).
const (
	WireF64 = model.PrecisionF64 // 8-byte float64 values (default)
	WireF32 = model.PrecisionF32 // 4-byte float32 values
)

// PullResponse is a decoded pull frame. Weights is nil when the store
// holds nothing newer than the caller's since seq (poll window expired,
// or the run is done and the caller is already current); Seq, Epoch and
// Iters then describe the version the caller should already hold.
type PullResponse struct {
	Seq     uint64
	Epoch   int   // applied pushes at the cut
	Iters   int64 // cumulative worker updates folded in
	Done    bool
	Loss    float64 // last evaluated objective; -1 before the first evaluation
	Wire    string  // width of the values on the wire
	Weights []float64
}

// PushRequest is one worker round: the coordinates that moved during the
// round and by how much, relative to the version at Seq the round
// trained from. Idx is strictly increasing, so each coordinate is
// touched once and the coordinator's per-entry overflow check is exactly
// the post-apply value.
type PushRequest struct {
	Worker  int
	Seq     uint64 // base version the delta was computed against
	Updates int64  // SGD updates folded into the delta
	Wire    string // width of the values on the wire
	Idx     []int
	Val     []float64
}

// PushResponse reports the coordinator's verdict. Applied is false when
// the push was shed (HTTP 409) — either its staleness exceeded the
// bound, or its base seq was ahead of the coordinator (a restart
// without checkpoint; Staleness is then negative); the worker re-pulls
// and rejoins from the current version in both cases.
type PushResponse struct {
	Seq       uint64  `json:"seq"` // coordinator seq after the verdict
	Applied   bool    `json:"applied"`
	Staleness int64   `json:"staleness"` // measured server_seq - push_seq
	Done      bool    `json:"done"`
	Loss      float64 `json:"loss"`
}

// Stats answers GET /v1/cluster/stats — the coordinator's run state for
// harnesses and CI gates.
type Stats struct {
	Seq         uint64  `json:"seq"`
	Applied     int64   `json:"pushes_applied"`
	Shed        int64   `json:"pushes_shed"`
	Bad         int64   `json:"pushes_bad"`
	Compensated int64   `json:"pushes_compensated"`
	Updates     int64   `json:"updates"`
	Loss        float64 `json:"loss"`
	Reached     bool    `json:"reached"` // loss target hit
	Done        bool    `json:"done"`
	MaxTau      int64   `json:"max_staleness"`
	MeanTau     float64 `json:"mean_staleness"`
	Workers     int     `json:"workers_seen"`
	TargetObj   float64 `json:"target_loss"`
}

type errorBody struct {
	Error string `json:"error"`
}

// sparseDiff appends to idx/val the coordinates where cur differs from
// prev, as (index, cur-prev) pairs in increasing index order — the
// accumulated update a worker round pushes. The slices are reused
// across rounds.
func sparseDiff(prev, cur []float64, idx []int, val []float64) ([]int, []float64) {
	idx, val = idx[:0], val[:0]
	for j := range cur {
		if d := cur[j] - prev[j]; d != 0 {
			idx = append(idx, j)
			val = append(val, d)
		}
	}
	return idx, val
}

// parseWire validates a wire width name ("" selects WireF64).
func parseWire(s string) (string, error) {
	switch s {
	case "", WireF64:
		return WireF64, nil
	case WireF32:
		return WireF32, nil
	}
	return "", fmt.Errorf("cluster: unknown wire encoding %q (want f64 or f32)", s)
}

// Frame size bounds. A header holds at most four varints, a width byte,
// and a pull's done byte and loss.
const maxHeader = 4*binary.MaxVarintLen64 + 1 + 1 + 8

// maxPullFrame is the largest pull frame a model of dim coordinates
// answers at wire's width: the worker reads no further.
func maxPullFrame(dim int, wire string) int { return maxHeader + frame.WidthOf(wire)*dim }

// maxPushFrame is the largest push frame a model of dim coordinates
// accepts: every coordinate, each with the longest gap and the widest
// value.
func maxPushFrame(dim int) int64 {
	gapLen := (bits.Len64(uint64(dim)) + 6) / 7 // shortest uvarint of a gap ≤ dim
	return int64(maxHeader) + int64(dim)*int64(gapLen+8)
}

// appendPush appends req's frame to dst. req.Idx must be strictly
// increasing, as sparseDiff leaves it.
func appendPush(dst []byte, req *PushRequest) []byte {
	dst = binary.AppendUvarint(dst, uint64(req.Worker))
	dst = binary.AppendUvarint(dst, req.Seq)
	dst = binary.AppendUvarint(dst, uint64(req.Updates))
	dst = append(dst, byte(frame.WidthOf(req.Wire)))
	dst = binary.AppendUvarint(dst, uint64(len(req.Idx)))
	prev := -1
	for _, j := range req.Idx {
		dst = binary.AppendUvarint(dst, uint64(j-prev))
		prev = j
	}
	return frame.AppendValues(dst, req.Val, frame.WidthOf(req.Wire))
}

// appendPull appends pr's frame to dst: the whole of pr.Weights, or a
// count of 0 when it is nil.
func appendPull(dst []byte, pr *PullResponse) []byte {
	dst = binary.AppendUvarint(dst, pr.Seq)
	dst = binary.AppendUvarint(dst, uint64(pr.Epoch))
	dst = binary.AppendUvarint(dst, uint64(pr.Iters))
	dst = frame.AppendBool(dst, pr.Done)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(pr.Loss))
	dst = append(dst, byte(frame.WidthOf(pr.Wire)))
	dst = binary.AppendUvarint(dst, uint64(len(pr.Weights)))
	return frame.AppendValues(dst, pr.Weights, frame.WidthOf(pr.Wire))
}

// decodePush decodes a push frame against a model of dim coordinates.
func decodePush(b []byte, dim int) (PushRequest, error) {
	r := frame.NewReader(b)
	req := PushRequest{
		Worker:  int(r.Uvarint("worker", math.MaxInt)),
		Seq:     r.Uvarint("seq", math.MaxUint64),
		Updates: int64(r.Uvarint("updates", math.MaxInt64)),
	}
	width := r.Width()
	req.Wire = frame.NameOf(width)
	n := r.Uvarint("count", uint64(dim))
	// Each pair takes at least one gap byte and one value: the body bounds
	// the count before anything is allocated.
	if r.Err() == nil && n > uint64(len(r.Rest())/(1+width)) {
		r.Fail("count %d exceeds what %d bytes can hold", n, len(r.Rest()))
	}
	if r.Err() != nil {
		return PushRequest{}, frameErr(r.Err())
	}
	req.Idx, req.Val = make([]int, n), make([]float64, n)
	j := -1
	for k := range req.Idx {
		gap := r.Uvarint("index gap", math.MaxUint64)
		switch {
		case r.Err() != nil:
		case gap == 0:
			r.Fail("zero index gap at pair %d", k)
		case gap > uint64(dim-1-j):
			r.Fail("index gap %d at pair %d runs past Dim %d", gap, k, dim)
		}
		if r.Err() != nil {
			return PushRequest{}, frameErr(r.Err())
		}
		j += int(gap)
		req.Idx[k] = j
	}
	r.Values(req.Val, width)
	if r.Err() != nil {
		return PushRequest{}, frameErr(r.Err())
	}
	return req, nil
}

// decodePull decodes a pull frame. dst is the model's dense vector, Dim
// long; a frame that carries weights is decoded into it, and Weights
// then aliases dst.
func decodePull(b []byte, dst []float64) (PullResponse, error) {
	r := frame.NewReader(b)
	pr := PullResponse{
		Seq:   r.Uvarint("seq", math.MaxUint64),
		Epoch: int(r.Uvarint("epoch", math.MaxInt)),
		Iters: int64(r.Uvarint("iters", math.MaxInt64)),
		Done:  r.Bool("done"),
		Loss:  r.Float64("loss"),
	}
	width := r.Width()
	pr.Wire = frame.NameOf(width)
	switch n := r.Uvarint("count", uint64(len(dst))); {
	case r.Err() != nil:
	case n == uint64(len(dst)) && n > 0:
		pr.Weights = dst
	case n != 0:
		r.Fail("count %d is neither 0 nor the model's %d", n, len(dst))
	}
	r.Values(pr.Weights, width)
	if r.Err() != nil {
		return PullResponse{}, frameErr(r.Err())
	}
	return pr, nil
}

// frameErr marks a frame decoding failure as the cluster's.
func frameErr(err error) error { return fmt.Errorf("cluster: %w", err) }
