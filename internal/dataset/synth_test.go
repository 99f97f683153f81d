package dataset

import (
	"math"
	"testing"

	"github.com/isasgd/isasgd/internal/objective"
)

func TestSynthConfigValidate(t *testing.T) {
	ok := Small(1)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*SynthConfig){
		func(c *SynthConfig) { c.N = 0 },
		func(c *SynthConfig) { c.Dim = 0 },
		func(c *SynthConfig) { c.NNZPerRow = 0 },
		func(c *SynthConfig) { c.NNZJitter = -1 },
		func(c *SynthConfig) { c.NNZJitter = c.NNZPerRow },
		func(c *SynthConfig) { c.NNZPerRow = c.Dim + 1; c.NNZJitter = 0 },
		func(c *SynthConfig) { c.ZipfS = -1 },
		func(c *SynthConfig) { c.NormSigma = -0.1 },
		func(c *SynthConfig) { c.LabelNoise = 0.9 },
	}
	for i, mutate := range bad {
		c := Small(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, err := Synthesize(Small(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(Small(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() || a.X.NNZ() != b.X.NNZ() {
		t.Fatal("same seed produced different shapes")
	}
	for k := range a.X.Val {
		if a.X.Val[k] != b.X.Val[k] || a.X.Idx[k] != b.X.Idx[k] {
			t.Fatal("same seed produced different data")
		}
	}
	c, err := Synthesize(Small(43))
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for k := range a.X.Val {
		if k < len(c.X.Val) && a.X.Val[k] != c.X.Val[k] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSynthesizeLabelsAreSigns(t *testing.T) {
	d, err := Synthesize(Small(3))
	if err != nil {
		t.Fatal(err)
	}
	pos, neg := 0, 0
	for _, y := range d.Y {
		switch y {
		case 1:
			pos++
		case -1:
			neg++
		default:
			t.Fatalf("label %g not in {−1,+1}", y)
		}
	}
	// Ground-truth scores are symmetric, so both classes must appear.
	if pos == 0 || neg == 0 {
		t.Fatalf("degenerate label split: +%d/−%d", pos, neg)
	}
}

func TestSynthesizeRhoCalibration(t *testing.T) {
	// The generator must land ρ close to TargetRho (Var is estimated on
	// the generated sample, so calibration is exact up to the η shift).
	for _, target := range []float64{1e-4, 6e-4, 1e-2} {
		cfg := Small(5)
		cfg.TargetRho = target
		d, err := Synthesize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l := objective.Weights(d.X, objective.LogisticL1{Eta: 1e-4})
		rho := ComputeStats(d, l).Rho
		if math.Abs(rho-target) > 0.02*target {
			t.Errorf("target ρ=%g, got %g", target, rho)
		}
	}
}

func TestPresetSignatures(t *testing.T) {
	// The four presets must reproduce the Table-1 orderings:
	// ψ: news20 > url > kdda > kddb; ρ: only news20 ≥ ζ, the paper's
	// threshold (Section 2.4);
	// density: news20 > url > kdda > kddb.
	const zeta = 5e-4
	if testing.Short() {
		t.Skip("preset generation is moderately expensive")
	}
	const scale = 0.1
	presets := Presets(scale, 11)
	type sig struct {
		name    string
		psi     float64
		rho     float64
		density float64
	}
	var sigs []sig
	for _, cfg := range presets {
		d, err := Synthesize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l := objective.Weights(d.X, objective.LogisticL1{Eta: 1e-4})
		s := ComputeStats(d, l)
		sigs = append(sigs, sig{name: cfg.Name, psi: s.Psi, rho: s.Rho, density: s.Density})
	}
	for i := 1; i < len(sigs); i++ {
		if sigs[i].psi >= sigs[i-1].psi {
			t.Errorf("ψ ordering violated: %s %.4f !> %s %.4f",
				sigs[i-1].name, sigs[i-1].psi, sigs[i].name, sigs[i].psi)
		}
		if sigs[i].density >= sigs[i-1].density {
			t.Errorf("density ordering violated: %s %.2e !> %s %.2e",
				sigs[i-1].name, sigs[i-1].density, sigs[i].name, sigs[i].density)
		}
	}
	if sigs[0].rho < zeta {
		t.Errorf("news20s ρ=%g below ζ; Algorithm 4 would not balance it", sigs[0].rho)
	}
	for _, s := range sigs[1:] {
		if s.rho >= zeta {
			t.Errorf("%s ρ=%g above ζ; Algorithm 4 would balance it", s.name, s.rho)
		}
	}
	// ψ bands from Table 1, with generous tolerance (sampling noise).
	wantPsi := map[string]float64{"news20s": 0.972, "urls": 0.964, "kddas": 0.892, "kddbs": 0.877}
	for _, s := range sigs {
		if w := wantPsi[s.name]; math.Abs(s.psi-w) > 0.03 {
			t.Errorf("%s: ψ=%.4f deviates from paper %.3f by more than 0.03", s.name, s.psi, w)
		}
	}
}

func TestSynthesizeRespectsShape(t *testing.T) {
	cfg := SynthConfig{
		Name: "shape", N: 100, Dim: 50, NNZPerRow: 5, NNZJitter: 2,
		ZipfS: 1, NormSigma: 0.1, Seed: 1,
	}
	d, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 100 || d.Dim() != 50 {
		t.Fatalf("shape %dx%d", d.N(), d.Dim())
	}
	for i := 0; i < d.N(); i++ {
		nnz := d.X.Row(i).NNZ()
		if nnz < 3 || nnz > 7 {
			t.Fatalf("row %d nnz=%d outside [3,7]", i, nnz)
		}
	}
}

func TestScaleIntFloor(t *testing.T) {
	if scaleInt(1000, 0.5, 10) != 500 {
		t.Fatal("scaleInt basic")
	}
	if scaleInt(1000, 0.001, 10) != 10 {
		t.Fatal("scaleInt floor")
	}
}
