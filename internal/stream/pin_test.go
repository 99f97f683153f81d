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
func TestPinnedWeights(t *testing.T) {
	corpus := makeSkewedCorpus(1024, 64, 0.8, 7, 7)
	for _, tc := range []struct {
		kind model.Kind
		mode string
		want uint64
	}{
		{model.KindAtomic, "bound", 0x90c7f531bf38e598},
		{model.KindAtomic, "uniform", 0xa3487b12ca665313},
		{model.KindAtomic, "grad", 0x2fb83eaf85228afc},
		{model.KindRacy32, "bound", 0x85b9265b6164bb84},
		{model.KindRacy32, "uniform", 0xbc170e849116f7f8},
		{model.KindRacy32, "grad", 0xe86757b478c200ca},
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
