package stream

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"

	"github.com/isasgd/isasgd/internal/model"
)

// TestPinnedWeights pins the update loop bitwise: a single-worker run
// with a fixed seed must end on exactly the weights recorded before the
// three per-mode loops were merged into one, for an f64 and an f32 model
// under bound, uniform and gradient-norm sampling. The trainer's Dim is
// below the corpus's, so a share of the rows takes the kernels' clamped
// slow paths.
//
// The three f32 rows were re-recorded once, when the window began to drop
// a row's features at or beyond Dim at admission instead of skipping them
// in clamped kernels: Dot32 assigns its four accumulators by position, so
// removing entries from a row regroups the float32 sum. The parent
// trainer fed rows pre-filtered the same way ends on exactly these
// hashes; the f64 dots accumulate sequentially, so their rows did not
// move.
//
// The two grad rows replace the loss-feedback rows and were recorded
// once, when gradient-norm importance (the |ℓ'| the loop records, weighed
// by adaptive.GradWeights) replaced the loss EMA: it is a different
// sampling distribution, so there is no earlier run for them to match.
//
// All six rows were re-recorded once more when every block began to be
// sharded by a seeded shuffle: this corpus's streamed ρ̂ was above ζ, so
// each block took Algorithm 4's head–tail branch, which draws nothing,
// while the shuffle draws its permutation from rngs[0], the one worker's
// own generator. Both the observation order, and with it the reservoir's
// and the alias table's, and the worker's draws move; the update loop
// does not: the parent trainer with its branch forced to the shuffle
// ends on exactly these hashes.
func TestPinnedWeights(t *testing.T) {
	corpus := makeSkewedCorpus(1024, 64, 0.8, 7, 7)
	for _, tc := range []struct {
		kind model.Kind
		mode string
		want uint64
	}{
		{model.KindAtomic, "bound", 0x81b2d59dd271b654},
		{model.KindAtomic, "uniform", 0xbe46142dd4774050},
		{model.KindAtomic, "grad", 0x58728fdb8864e2bb},
		{model.KindRacy32, "bound", 0x0a9551cd024ccfe8},
		{model.KindRacy32, "uniform", 0x5ec1ba50d60c69ee},
		{model.KindRacy32, "grad", 0x3a45a63b90936a67},
	} {
		t.Run(tc.kind.String()+"/"+tc.mode, func(t *testing.T) {
			cfg := streamConfig(48, tc.mode == "uniform")
			cfg.Workers = 1
			cfg.ModelKind = tc.kind
			if tc.mode == "grad" {
				cfg.Importance = "grad"
			}
			tr, err := NewTrainer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tr.Run(context.Background(), NewReader(strings.NewReader(corpus), "pin", 128))
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a() // over the weights' little-endian bit patterns
			binary.Write(h, binary.LittleEndian, res.Weights)
			if got := h.Sum64(); got != tc.want {
				t.Errorf("final weights hash %#x, want %#x", got, tc.want)
			}
		})
	}
}
