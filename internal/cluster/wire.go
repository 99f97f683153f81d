package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"github.com/isasgd/isasgd/internal/frame"
	"github.com/isasgd/isasgd/internal/model"
)

// Weights and deltas travel as binary frames (internal/frame): a
// worker's deltas as the push frame below, the body of a
// POST /v1/cluster/push, and the coordinator's weights as the version
// frame of frame.Header, the 200 answer of a GET /v1/cluster/pull, which
// snapshot replication answers too. Everything else (push verdicts,
// /v1/cluster/stats, errors) is small JSON. A pull answer's header
// carries the coordinator's done flag and last loss beside the version's
// seq, epoch and iters; its count is 0 when nothing is newer than the
// caller's since seq, and Dim otherwise. The push frame:
//
//	worker   uvarint
//	seq      uvarint  base version
//	updates  uvarint  SGD updates
//	width    1 byte   8 (WireF64) or 4 (WireF32)
//	count    uvarint  pairs, ≤ Dim
//	gaps     count uvarints ≥ 1
//	values   count × width bytes
//
// A push carries the coordinates that moved in the round as index gaps:
// index k is gap_0 + … + gap_k − 1, so every gap ≥ 1 makes the indices
// strictly increasing, and a duplicate index cannot be expressed.
//
// Both frames are outside input, and their decoders fail closed on
// frame.Reader's rules. On top of them decodePush bounds count by Dim
// and by the bytes left before allocating, and rejects zero gaps and
// indices ≥ Dim. So every accepted frame re-encodes to the same bytes.
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
// and rejoins from the current version in both cases. Loss is the
// newest recorded evaluation, which runs off the push path, so not
// necessarily the one of the version this push published.
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
	TargetLoss  float64 `json:"target_loss"`
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

// maxPushFrame is the largest push frame a model of dim coordinates
// accepts: a header of four varints and the width byte, then every
// coordinate, each with the longest gap and the widest value.
func maxPushFrame(dim int) int64 {
	gapLen := (bits.Len64(uint64(dim)) + 6) / 7 // shortest uvarint of a gap ≤ dim
	return 4*binary.MaxVarintLen64 + 1 + int64(dim)*int64(gapLen+8)
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

// frameErr marks a frame decoding failure as the cluster's.
func frameErr(err error) error { return fmt.Errorf("cluster: %w", err) }
