package obs

import (
	"strings"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/obs/obstest"
)

func TestWorkerStalenessGrowsAndIsStable(t *testing.T) {
	r := NewRegistry()
	ti := NewTrainInstruments(r, "m")
	a := ti.WorkerStaleness(2)
	b := ti.WorkerStaleness(4)
	if a[0] != b[0] || a[1] != b[1] {
		t.Error("per-worker histograms not stable across growth")
	}
	if len(b) != 4 {
		t.Errorf("len = %d, want 4", len(b))
	}
}

func TestEpochAndBlockDone(t *testing.T) {
	r := NewRegistry()
	ti := NewTrainInstruments(r, "m")
	ti.EpochDone(100, time.Second)
	ti.BlockDone(64, 50, time.Second)
	if got := ti.UpdatesTotal.Count(); got != 150 {
		t.Errorf("updates total = %d, want 150", got)
	}
	if got := ti.RowsTotal.Count(); got != 64 {
		t.Errorf("rows total = %d, want 64", got)
	}
	if got := ti.UpdatesPerSec.Value(); got != 50 {
		t.Errorf("updates/s = %g, want 50 (last block)", got)
	}
	if got := ti.RowsPerSec.Value(); got != 64 {
		t.Errorf("rows/s = %g, want 64", got)
	}
}

func TestISStatsAndRebuild(t *testing.T) {
	r := NewRegistry()
	ti := NewTrainInstruments(r, "m")
	ti.SetISStats(123.4, 0.9, 777)
	ti.RebuildObserved(2 * time.Millisecond)
	ti.RebuildObserved(4 * time.Millisecond)
	if got := ti.ESS.Value(); got != 123.4 {
		t.Errorf("ESS = %g", got)
	}
	if got := ti.Reservoir.Value(); got != 777 {
		t.Errorf("reservoir = %g", got)
	}
	if got := ti.AliasRebuilds.Count(); got != 2 {
		t.Errorf("rebuilds = %d, want 2", got)
	}
	if s := ti.AliasRebuild.Sum(); s < 0.005 || s > 0.007 {
		t.Errorf("rebuild seconds sum = %g, want ~0.006", s)
	}

	out := exposition(t, r)
	for _, fam := range []string{
		`isasgd_is_effective_sample_size{model="m"} 123.4`,
		`isasgd_is_alias_rebuilds_total{model="m"} 2`,
		`isasgd_is_alias_rebuild_seconds{model="m",quantile="0.5"}`,
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("missing %q in:\n%s", fam, out)
		}
	}
	if err := obstest.Lint(strings.NewReader(out)); err != nil {
		t.Errorf("Lint: %v", err)
	}
}

func TestNilInstrumentsSafe(t *testing.T) {
	var ti *TrainInstruments
	ti.EpochDone(1, time.Second)
	ti.BlockDone(1, 1, time.Second)
	ti.SetISStats(0, 0, 0)
	ti.RebuildObserved(time.Millisecond)
}
