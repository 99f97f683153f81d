package cluster

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"
)

// TestPinnedWeights pins the star's arithmetic bitwise: one worker with a
// fixed seed trains three rounds against a coordinator, and the
// coordinator's final weights must hash to exactly what was recorded
// before the JSON/base64 wire was replaced by the binary frame, once per
// value width. One worker keeps every push at τ = 0, so the run is
// deterministic: pull, round, push, three times over.
//
// Both hashes were re-recorded once, when the worker's shard plan became
// the seeded shuffle: the test corpus has ρ = 1e-3 ≥ ζ, so the worker
// used to take its shard in Algorithm 3's head–tail order.
func TestPinnedWeights(t *testing.T) {
	for _, tc := range []struct {
		wire string
		want uint64
	}{
		{WireF64, 0x887c8914dad570d0},
		{WireF32, 0x5a2df24fef22caa2},
	} {
		t.Run(tc.wire, func(t *testing.T) {
			ds, obj := testCorpus(t)
			c, srv := startCoordinator(t, CoordinatorConfig{
				Dim: ds.Dim(), MaxUpdates: 3 * int64(ds.N()), PollTimeout: time.Second,
			})
			cfg := workerCfg(ds, obj, 0, 1, srv.URL)
			cfg.Wire = tc.wire
			w, err := NewWorker(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := w.Run(ctx); err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st.Applied != 3 {
				t.Fatalf("applied %d pushes, want 3: %+v", st.Applied, st)
			}
			h := fnv.New64a() // over the weights' little-endian bit patterns
			binary.Write(h, binary.LittleEndian, c.Store().Load().Weights)
			if got := h.Sum64(); got != tc.want {
				t.Errorf("final weights hash %#x, want %#x", got, tc.want)
			}
		})
	}
}
