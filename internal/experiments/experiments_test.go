package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/core"
)

// tiny returns a runner at an even smaller scale than Quick, for unit
// tests that train models.
func tiny(buf *bytes.Buffer) *Runner {
	s := Scale{Name: "tiny", DataScale: 0.012, Threads: []int{2, 4}, EpochsA: 6, EpochsB: 5, SpeedupK: 4}
	return NewRunner(buf, s, 77)
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "standard", "full", ""} {
		s, err := ScaleByName(name)
		if err != nil {
			t.Fatalf("ScaleByName(%q): %v", name, err)
		}
		if s.DataScale <= 0 || len(s.Threads) == 0 {
			t.Fatalf("scale %q not populated: %+v", name, s)
		}
	}
	if _, err := ScaleByName("nope"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	r := tiny(&buf)
	res, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// ψ ordering must match Table 1 (news20 > url > kdda > kddb).
	for i := 1; i < 4; i++ {
		if res.Rows[i].Stats.Psi >= res.Rows[i-1].Stats.Psi {
			t.Errorf("ψ ordering violated at row %d", i)
		}
	}
	// Only the News20 analog triggers Algorithm-4 balancing.
	if !res.Rows[0].Balanced {
		t.Error("news20s not balanced")
	}
	for _, row := range res.Rows[1:] {
		if row.Balanced {
			t.Errorf("%s should not balance", row.Stats.Name)
		}
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "news20s", "kddbs", "ψ"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig1RatioGrows(t *testing.T) {
	var buf bytes.Buffer
	r := tiny(&buf)
	res, err := r.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The ratio is the exact count d/nnz, and it grows down Table 1 as
	// the paper's datasets grow sparser (Figure 1's claim).
	for i, row := range res.Rows {
		d, err := r.Dataset(row.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(d.Dim()) / (float64(d.X.NNZ()) / float64(d.N())); row.Ratio != want {
			t.Errorf("%s: ratio %g, want d/(nnz/n) = %g", row.Dataset, row.Ratio, want)
		}
		if i > 0 && row.Ratio <= res.Rows[i-1].Ratio {
			t.Errorf("ratio not growing: %s %.0f -> %s %.0f", res.Rows[i-1].Dataset, res.Rows[i-1].Ratio, row.Dataset, row.Ratio)
		}
	}
}

func TestFig2MatchesPaperNumbers(t *testing.T) {
	var buf bytes.Buffer
	r := tiny(&buf)
	res, err := r.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	// Global: {0.1, 0.2, 0.3, 0.4}.
	want := []float64{0.1, 0.2, 0.3, 0.4}
	for i := range want {
		if diff := res.GlobalP[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("global P = %v", res.GlobalP)
		}
	}
	// Naive: node1 {x1,x2} → p2 = 0.67; node2 {x3,x4} → p4 = 0.57.
	if p2 := localProb(res.NaiveShards, res.L, 1); p2 < 0.66 || p2 > 0.68 {
		t.Fatalf("naive p2 = %g", p2)
	}
	if p4 := localProb(res.NaiveShards, res.L, 3); p4 < 0.56 || p4 > 0.58 {
		t.Fatalf("naive p4 = %g", p4)
	}
	// Balanced: Φ = {5, 5}, imbalance 0.
	if res.BalImbalance != 0 {
		t.Fatalf("balanced imbalance = %g", res.BalImbalance)
	}
	if res.NaiveImbal <= 0 {
		t.Fatal("naive split should be imbalanced")
	}
}

func TestConvergenceAndRenders(t *testing.T) {
	var buf bytes.Buffer
	r := tiny(&buf)
	cr, err := r.Convergence(context.Background(), "news20s")
	if err != nil {
		t.Fatal(err)
	}
	// 1 SGD + (ASGD, IS-ASGD) × 2 thread levels = 5 runs.
	if len(cr.Curves) != 5 {
		t.Fatalf("curves = %d, want 5", len(cr.Curves))
	}
	// All runs must have optimized, each epoch n updates.
	for k, c := range cr.Curves {
		if c.Final().Obj >= c[0].Obj {
			t.Errorf("%s did not reduce the objective (%g -> %g)", k, c[0].Obj, c.Final().Obj)
		}
		if want := int64(cr.Epochs * cr.Stats.N); c.Final().Iters != want {
			t.Errorf("%s ran %d updates, want %d", k, c.Final().Iters, want)
		}
	}
	// IS-ASGD decisions recorded with the expected Algorithm-4 branch,
	// which the reproduction applies (news20s has ρ ≥ ζ → balanced).
	for _, tau := range cr.Threads {
		d := cr.Decisions[RunKey{Algo: core.ISASGD, Threads: tau}]
		if !d.Balanced {
			t.Errorf("τ=%d: news20s IS-ASGD not balanced (ρ=%g)", tau, d.Rho)
		}
	}

	r.RenderIterative(cr)
	sums := r.RenderSpeedups(cr)
	if len(sums) != len(cr.Threads) {
		t.Fatalf("speedup summaries = %d", len(sums))
	}
	out := buf.String()
	for _, want := range []string{"Figure 3", "Figure 5", "is-asgd/2 RMSE", "asgd/4 err"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
}

func TestConvergenceUnknownPreset(t *testing.T) {
	var buf bytes.Buffer
	r := tiny(&buf)
	if _, err := r.Convergence(context.Background(), "nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestConvergenceCancelled(t *testing.T) {
	var buf bytes.Buffer
	r := tiny(&buf)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Convergence(ctx, "news20s"); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// TestAlgorithm4Branches: the reproduction's Algorithm 4 balances at
// ρ ≥ ζ and shuffles below.
func TestAlgorithm4Branches(t *testing.T) {
	if m := algorithm4([]float64{0.001, 10, 0.002, 20, 0.003, 30}); m != balance.ForceBalance {
		t.Errorf("high-ρ weights: %v, want balance", m)
	}
	if m := algorithm4([]float64{1, 1.0001, 0.9999, 1, 1.0002, 0.9998}); m != balance.ForceShuffle {
		t.Errorf("low-ρ weights: %v, want shuffle", m)
	}
}

func TestAblationBalancing(t *testing.T) {
	var buf bytes.Buffer
	r := tiny(&buf)
	res, err := r.AblationBalancing(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byMode := map[balance.Mode]AblBalanceRow{}
	for _, row := range res.Rows {
		byMode[row.Mode] = row
	}
	// On the skewed corpus the shuffle's shards are closer to equal Φ
	// than head–tail's, by both measures.
	ht, sh := byMode[balance.ForceBalance], byMode[balance.ForceShuffle]
	if sh.Inflation < 1 || sh.Inflation > ht.Inflation || sh.Imbalance > ht.Imbalance {
		t.Errorf("shuffle %+v does not balance at least as well as head–tail %+v", sh, ht)
	}
}

func TestAblationSequence(t *testing.T) {
	var buf bytes.Buffer
	r := tiny(&buf)
	res, err := r.AblationSequence(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regen) == 0 || len(res.Shuffle) == 0 {
		t.Fatal("curves missing")
	}
	// The frozen-shuffle approximation must not beat regeneration by a
	// meaningful margin (its bias can only hurt or be neutral).
	if res.FinalGap < -0.02 {
		t.Fatalf("shuffle approximation beat regeneration by %g", -res.FinalGap)
	}
	if !strings.Contains(buf.String(), "sequence regeneration") {
		t.Fatal("report missing")
	}
}

func TestAblationAdaptiveIS(t *testing.T) {
	var buf bytes.Buffer
	r := tiny(&buf)
	res, err := r.AblationAdaptiveIS(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.FinalRMSE <= 0 || row.FinalErr <= 0 {
			t.Fatalf("row not populated: %+v", row)
		}
	}
}

func TestTheory(t *testing.T) {
	var buf bytes.Buffer
	r := tiny(&buf)
	res, err := r.Theory()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.DeltaBar < 0 || row.TauBound <= 0 || row.KIS <= 0 {
			t.Fatalf("row not populated: %+v", row)
		}
	}
}

func TestPsiSweep(t *testing.T) {
	var buf bytes.Buffer
	r := tiny(&buf)
	res, err := r.PsiSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Measured ψ must track targets and be strictly decreasing.
	for i, row := range res.Rows {
		if row.MeasuredPsi <= 0 || row.MeasuredPsi > 1 {
			t.Fatalf("row %d ψ = %g", i, row.MeasuredPsi)
		}
		if i > 0 && row.MeasuredPsi >= res.Rows[i-1].MeasuredPsi {
			t.Fatalf("ψ not decreasing at row %d", i)
		}
	}
	// At the most skewed level the iterative speedup should exceed the
	// near-uniform level's (the Eq.-15 trend), allowing slack for noise.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.IterSpeedup <= 0 || first.IterSpeedup <= 0 {
		t.Fatalf("speedups not computed: %+v %+v", first, last)
	}
}

func TestTauSweep(t *testing.T) {
	var buf bytes.Buffer
	r := tiny(&buf)
	res, err := r.TauSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Every delay is below n (larger ones are all the τ = n schedule),
	// ascending and swept once per arm: at n = 200 that is 0, 4, 16, 64
	// and 100, for uniform and then IS.
	if res.N != 200 || len(res.Rows) != 10 {
		t.Fatalf("n = %d, rows = %d; want 200 and 5 delays × {uniform, IS}", res.N, len(res.Rows))
	}
	if res.TauBound <= 0 {
		t.Fatalf("τ bound = %g", res.TauBound)
	}
	for i, row := range res.Rows {
		if row.FinalObj <= 0 || row.FinalLoss <= 0 || row.FinalLoss > row.FinalObj {
			t.Fatalf("row not populated: %+v", row)
		}
		if row.Tau >= res.N || row.Importance != (i >= 5) || (i%5 > 0 && row.Tau <= res.Rows[i-1].Tau) {
			t.Fatalf("row %d: τ %d (importance %v) out of order", i, row.Tau, row.Importance)
		}
	}
	for _, want := range []string{"τ sweep", "final loss", "uniform: ", "IS: "} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestWriteCurvesCSV(t *testing.T) {
	var buf bytes.Buffer
	r := tiny(&buf)
	cr, err := r.Convergence(context.Background(), "urls")
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := WriteCurvesCSV(&csvBuf, cr.Dataset, cr.Curves); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	wantRows := 0
	for _, c := range cr.Curves {
		wantRows += len(c)
	}
	if len(lines) != wantRows+1 {
		t.Fatalf("csv rows = %d, want %d+header", len(lines), wantRows)
	}
	if !strings.HasPrefix(lines[0], "dataset,run,epoch") {
		t.Fatalf("header = %q", lines[0])
	}
	// Deterministic ordering: generating twice gives identical bytes.
	var second bytes.Buffer
	if err := WriteCurvesCSV(&second, cr.Dataset, cr.Curves); err != nil {
		t.Fatal(err)
	}
	if second.String() != csvBuf.String() {
		t.Fatal("CSV output not deterministic")
	}
}

func TestRunKeyString(t *testing.T) {
	if (RunKey{Algo: core.SGD, Threads: 1}).String() != "sgd" {
		t.Fatal("sequential key format")
	}
	if (RunKey{Algo: core.ISASGD, Threads: 8}).String() != "is-asgd/8" {
		t.Fatal("async key format")
	}
}

// TestSweepsRepeat runs the ψ and τ sweeps twice at one seed: both run
// on the delayed executor, so the two reports must be byte-identical.
func TestSweepsRepeat(t *testing.T) {
	report := func() string {
		var buf bytes.Buffer
		if _, err := tiny(&buf).Run(context.Background(), map[string]bool{"psisweep": true, "tausweep": true}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := report(), report(); a != b {
		t.Fatalf("reports differ:\n%s\n---\n%s", a, b)
	}
}

func TestTable(t *testing.T) {
	var buf bytes.Buffer
	tiny(&buf).table([]string{"name", "value"}, [][]string{
		{"alpha", "1"},
		{"b", "22222"},
	})
	lines := strings.Split(buf.String(), "\n")
	// Header, separator, two rows, the blank line after the table and
	// the empty string after its newline.
	if len(lines) != 6 || lines[4] != "" {
		t.Fatalf("lines = %q", lines)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "-----") {
		t.Fatalf("separator = %q", lines[1])
	}
	// Columns aligned: "value" column must start at the same offset.
	if idx0, idx2 := strings.Index(lines[0], "value"), strings.Index(lines[2], "1"); idx0 != idx2 {
		t.Fatalf("columns misaligned: %d vs %d", idx0, idx2)
	}
}

func TestTableWideCell(t *testing.T) {
	var buf bytes.Buffer
	tiny(&buf).table([]string{"h"}, [][]string{{"wide-cell-content"}})
	if !strings.Contains(buf.String(), "wide-cell-content") {
		t.Fatal("cell truncated")
	}
}
