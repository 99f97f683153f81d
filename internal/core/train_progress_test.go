package core

import (
	"context"
	"testing"

	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/objective"
)

// TestProgressCallback checks that Config.Progress observes every
// recorded curve point in order, starting with the epoch-0 evaluation.
func TestProgressCallback(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.Small(7))
	if err != nil {
		t.Fatal(err)
	}
	var seen []metrics.Point
	res, err := Train(context.Background(), ds, objective.LogisticL1{Eta: 1e-4}, Config{
		Algo: SGD, Epochs: 4, Step: 0.5, Seed: 7,
		Progress: func(p metrics.Point) { seen = append(seen, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Curve) {
		t.Fatalf("Progress saw %d points, curve has %d", len(seen), len(res.Curve))
	}
	for i, p := range seen {
		if p != res.Curve[i] {
			t.Fatalf("point %d mismatch: callback %+v vs curve %+v", i, p, res.Curve[i])
		}
	}
	if seen[0].Epoch != 0 {
		t.Fatalf("first progress point epoch = %d, want 0", seen[0].Epoch)
	}
	if seen[len(seen)-1].Epoch != 4 {
		t.Fatalf("last progress point epoch = %d, want 4", seen[len(seen)-1].Epoch)
	}
}
