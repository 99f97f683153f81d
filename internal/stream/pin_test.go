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
// under bound, uniform and loss-feedback sampling. The trainer's Dim is
// below the corpus's, so a share of the rows takes the kernels' clamped
// slow paths. The f32 loss row is new: before the merge the f32 loop
// had no loss feedback (Precision "f32" was rejected, and a bare f32
// ModelKind silently trained in bound mode), so it pins the behaviour the
// merge introduced.
func TestPinnedWeights(t *testing.T) {
	corpus := makeSkewedCorpus(1024, 64, 0.8, 7, 7)
	for _, tc := range []struct {
		kind model.Kind
		mode string
		want uint64
	}{
		{model.KindAtomic, "bound", 0x90c7f531bf38e598},
		{model.KindAtomic, "uniform", 0xa3487b12ca665313},
		{model.KindAtomic, "loss", 0x9c6b8f2d2157a641},
		{model.KindRacy32, "bound", 0x9f588cadcab9d441},
		{model.KindRacy32, "uniform", 0x22be25dcb2f28eab},
		{model.KindRacy32, "loss", 0xa2360653d2c58a23},
	} {
		t.Run(tc.kind.String()+"/"+tc.mode, func(t *testing.T) {
			cfg := streamConfig(48, tc.mode == "uniform")
			cfg.Workers = 1
			cfg.ModelKind = tc.kind
			if tc.mode == "loss" {
				cfg.Importance = "loss"
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
