package core

import (
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/xrand"
)

// TestSpreadMultiplier checks the layout rule over small, power-of-two
// and corpus-sized dimensions: the map is a bijection, small dims keep
// the identity, and at the listed dims of at least 64·1 024 the 1 024
// lowest ids land at least 16 slots apart, a float32 cache line (48 at
// dim = 120 000, 271 at 600 000). At dim = 120 000 the
// golden candidate ⌊dim·(√5−1)/2⌋ = 74 164 shares the factor 4 with dim,
// so the rule steps past it.
func TestSpreadMultiplier(t *testing.T) {
	const hot = 1024
	sharesFactor := false
	for _, dim := range []int{1, 2, 63, 64, 4096, 1 << 20, 120_000, 600_000} {
		l := newLayout(dim, 2)
		if dim < spreadMinDim {
			if !l.identity() {
				t.Fatalf("dim %d: multiplier %d, want the identity", dim, l.a)
			}
			continue
		}
		cand := int(float64(dim) * goldenFrac)
		if l.a < cand || gcd(l.a, dim) != 1 {
			t.Fatalf("dim %d: multiplier %d is not a coprime at or above the golden candidate %d", dim, l.a, cand)
		}
		sharesFactor = sharesFactor || l.a != cand
		for k := cand; k < l.a; k++ {
			if gcd(k, dim) == 1 {
				t.Fatalf("dim %d: multiplier %d skips the coprime %d", dim, l.a, k)
			}
		}
		slots := l.slots()
		seen := make([]bool, dim)
		for j, p := range slots {
			if p < 0 || int(p) >= dim || seen[p] {
				t.Fatalf("dim %d: id %d maps to slot %d, not a bijection", dim, j, p)
			}
			seen[p] = true
			if want := int32(int64(l.a) * int64(j) % int64(dim)); p != want {
				t.Fatalf("dim %d: id %d at slot %d, want a·j mod dim = %d", dim, j, p, want)
			}
		}
		if dim < 64*hot {
			continue
		}
		occupied := make([]bool, dim)
		for _, p := range slots[:hot] {
			occupied[p] = true
		}
		last, gap := -1, dim
		for p, ok := range occupied {
			if ok {
				if last >= 0 {
					gap = min(gap, p-last)
				}
				last = p
			}
		}
		if gap < 16 {
			t.Fatalf("dim %d: the %d hottest ids land %d slots apart, want ≥ 16", dim, hot, gap)
		}
	}
	if !sharesFactor {
		t.Fatal("no dim in the table exercises the coprime step")
	}
	if l := newLayout(120_000, 1); !l.identity() {
		t.Fatalf("one worker relabels (multiplier %d)", l.a)
	}
}

// TestLoadSnapshotRoundTrip: at two workers every model kind runs the
// relabelled layout, and the engine's boundary restores logical order.
// Load(w) then Snapshot returns w, exactly in float64 and at float32
// rounding in float32; after concurrent epochs the versions PublishTo
// cuts equal Snapshot. The racy kinds race by design, so under -race
// only the CAS kinds run their epochs.
func TestLoadSnapshotRoundTrip(t *testing.T) {
	ds, obj := smallProblem(t)
	rng := xrand.New(11)
	w := make([]float64, ds.Dim())
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	for _, kind := range []model.Kind{model.KindAtomic, model.KindRacy, model.KindAtomic32, model.KindRacy32} {
		e, err := NewISASGDOpts(ds, obj, model.New(kind, ds.Dim()), 2, ISOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if e.lay.identity() {
			t.Fatalf("%v: two workers over %d coordinates keep the identity layout", kind, ds.Dim())
		}
		e.Load(w)
		got := e.Snapshot(nil)
		for j := range w {
			want := w[j]
			if kind.Is32() {
				want = float64(float32(want))
			}
			if got[j] != want {
				t.Fatalf("%v: coordinate %d reads %g after Load(%g)", kind, j, got[j], w[j])
			}
		}
		if model.RaceEnabled && (kind == model.KindRacy || kind == model.KindRacy32) {
			continue
		}
		st := snapshot.NewStore()
		e.PublishTo(st, 1)
		for epoch := 0; epoch < 2; epoch++ {
			e.RunEpoch(0.5)
			sameBits(t, st.Load().Weights, e.Snapshot(got))
		}
	}
}

// TestLayoutKeepsBits: the relabelled layout runs every update's
// arithmetic in the identity layout's order, so two engines built alike,
// one forced back onto the identity, give bitwise-equal weights on the
// delayed executor — uniform, bound and grad importance, SVRG and delay
// compensation, in both precisions.
func TestLayoutKeepsBits(t *testing.T) {
	ds, obj := smallProblem(t)
	builds := map[string]func(m model.Params) (*Engine, error){
		"asgd": func(m model.Params) (*Engine, error) { return NewASGD(ds, obj, m, 2, 5) },
		"bound": func(m model.Params) (*Engine, error) {
			return NewISASGDOpts(ds, obj, m, 3, ISOptions{Mode: balance.ForceBalance, Seed: 5})
		},
		"grad": func(m model.Params) (*Engine, error) {
			return NewISASGDOpts(ds, obj, m, 2, ISOptions{Seed: 5, Importance: "grad"})
		},
		"svrg": func(m model.Params) (*Engine, error) { return NewSVRG(ds, obj, m, 2, 5) },
		"dc": func(m model.Params) (*Engine, error) {
			e, err := NewASGD(ds, obj, m, 2, 5)
			if err == nil {
				err = e.SetDC(0.5)
			}
			return e, err
		},
	}
	for name, build := range builds {
		for _, kind := range []model.Kind{model.KindRacy, model.KindRacy32} {
			var w [2][]float64
			for k := range w {
				e, err := build(model.New(kind, ds.Dim()))
				if err != nil {
					t.Fatal(err)
				}
				if k == 1 {
					if e.colScale != nil {
						cs := make([]float64, ds.Dim())
						e.lay.gather(cs, e.colScale)
						e.colScale = cs
					}
					e.lay, e.x.Idx = layout{a: 1, dim: ds.Dim()}, ds.X.Idx
				}
				for epoch := 0; epoch < 3; epoch++ {
					e.RunEpochDelayed(0.5, 2)
				}
				w[k] = e.Snapshot(nil)
			}
			if j := model.FirstNonFinite(w[0]); j >= 0 {
				t.Fatalf("%s/%v: non-finite weight at %d", name, kind, j)
			}
			sameBits(t, w[0], w[1])
		}
	}
}
