package sampling

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/isasgd/isasgd/internal/xrand"
)

// chiSquare runs a goodness-of-fit test of the sampler's empirical
// distribution against want. Returns the statistic; the caller compares to
// a critical value for len(want)-1 degrees of freedom.
func chiSquare(t *testing.T, s Sampler, want []float64, draws int, seed uint64) float64 {
	t.Helper()
	r := xrand.New(seed)
	counts := make([]int, s.N())
	for i := 0; i < draws; i++ {
		k := s.Sample(r)
		if k < 0 || k >= s.N() {
			t.Fatalf("sample %d out of range [0,%d)", k, s.N())
		}
		counts[k]++
	}
	chi2 := 0.0
	for i, c := range counts {
		exp := want[i] * float64(draws)
		if exp == 0 {
			if c != 0 {
				t.Fatalf("index %d has probability 0 but was drawn %d times", i, c)
			}
			continue
		}
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	return chi2
}

func TestUniform(t *testing.T) {
	u := NewUniform(10)
	if u.N() != 10 {
		t.Fatal("N mismatch")
	}
	want := make([]float64, 10)
	for i := range want {
		want[i] = 0.1
		if math.Abs(u.Prob(i)-0.1) > 1e-15 {
			t.Fatalf("Prob(%d) = %g", i, u.Prob(i))
		}
	}
	if u.Prob(-1) != 0 || u.Prob(10) != 0 {
		t.Fatal("out-of-range Prob must be 0")
	}
	// 9 dof, p=0.001 → 27.88
	if chi2 := chiSquare(t, u, want, 100000, 1); chi2 > 27.88 {
		t.Fatalf("uniform chi-square = %g", chi2)
	}
}

func TestUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewUniform(0) did not panic")
		}
	}()
	NewUniform(0)
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 0, 10}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(weights))
	for i, w := range weights {
		want[i] = w / 20.0
		if math.Abs(a.Prob(i)-want[i]) > 1e-12 {
			t.Fatalf("Prob(%d) = %g, want %g", i, a.Prob(i), want[i])
		}
	}
	// 5 dof (one zero cell), p=0.001 → 20.52 (conservative: use 6-1=5).
	if chi2 := chiSquare(t, a, want, 200000, 2); chi2 > 20.52 {
		t.Fatalf("alias chi-square = %g", chi2)
	}
}

func TestCDFMatchesWeights(t *testing.T) {
	weights := []float64{5, 0.5, 0.5, 2, 2}
	c, err := NewCDF(weights)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(weights))
	for i, w := range weights {
		want[i] = w / 10.0
	}
	if chi2 := chiSquare(t, c, want, 200000, 3); chi2 > 18.47 { // 4 dof p=0.001
		t.Fatalf("cdf chi-square = %g", chi2)
	}
}

func TestAliasAndCDFAgreeProperty(t *testing.T) {
	// Property: for random weight vectors, Alias and CDF expose identical
	// Prob() distributions (they share normalize()) and both are valid
	// distributions.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(40)
		w := make([]float64, n)
		for i := range w {
			w[i] = r.Float64() * 10
		}
		w[r.Intn(n)] += 0.5 // ensure not all zero
		a, errA := NewAlias(w)
		c, errC := NewCDF(w)
		if errA != nil || errC != nil {
			return false
		}
		sumA, sumC := 0.0, 0.0
		for i := 0; i < n; i++ {
			if math.Abs(a.Prob(i)-c.Prob(i)) > 1e-12 {
				return false
			}
			sumA += a.Prob(i)
			sumC += c.Prob(i)
		}
		return math.Abs(sumA-1) < 1e-9 && math.Abs(sumC-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAliasRebuildMatchesNewAlias: a table rebuilt in place over
// earlier tables of other sizes and skews holds bit for bit the table
// NewAlias builds from the same weights, a failed rebuild leaves it as
// it was, and a rebuild that fits the table's slices allocates nothing.
func TestAliasRebuildMatchesNewAlias(t *testing.T) {
	r := xrand.New(7)
	weights := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Exp(3 * r.NormFloat64())
		}
		if n > 1 && r.Intn(3) == 0 {
			w[r.Intn(n)] = 0 // a zero weight is never drawn
		}
		return w
	}
	same := func(a, b *Alias) bool {
		if len(a.prob) != len(b.prob) || len(a.p) != len(b.p) {
			return false
		}
		for i := range a.prob {
			if math.Float64bits(a.prob[i]) != math.Float64bits(b.prob[i]) ||
				a.alias[i] != b.alias[i] || math.Float64bits(a.p[i]) != math.Float64bits(b.p[i]) {
				return false
			}
		}
		return true
	}
	a, err := NewAlias(weights(5))
	if err != nil {
		t.Fatal(err)
	}
	var want *Alias
	for _, n := range []int{1, 40, 3, 40, 17, 64, 64, 2} {
		w := weights(n)
		if want, err = NewAlias(w); err != nil {
			t.Fatal(err)
		}
		if err := a.Rebuild(w); err != nil {
			t.Fatal(err)
		}
		if !same(a, want) {
			t.Fatalf("n=%d: rebuilt table differs from NewAlias", n)
		}
	}
	if err := a.Rebuild([]float64{1, -1, 2}); !errors.Is(err, ErrBadWeights) {
		t.Fatalf("Rebuild accepted bad weights: %v", err)
	}
	if !same(a, want) {
		t.Fatal("a failed rebuild changed the table")
	}
	w := weights(64)
	if n := testing.AllocsPerRun(10, func() { a.Rebuild(w) }); n != 0 {
		t.Fatalf("Rebuild within capacity: %v allocs, want 0", n)
	}
}

func TestAliasEmpiricalProperty(t *testing.T) {
	// Property: empirical frequencies track Prob within 5 sigma for a few
	// random skewed weight vectors.
	r := xrand.New(99)
	for trial := 0; trial < 5; trial++ {
		n := 2 + r.Intn(20)
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Exp(3 * r.NormFloat64()) // heavy skew
		}
		a, err := NewAlias(w)
		if err != nil {
			t.Fatal(err)
		}
		const draws = 300000
		counts := make([]int, n)
		rr := xrand.New(uint64(trial) + 1000)
		for i := 0; i < draws; i++ {
			counts[a.Sample(rr)]++
		}
		for i, c := range counts {
			p := a.Prob(i)
			sigma := math.Sqrt(float64(draws) * p * (1 - p))
			dev := math.Abs(float64(c) - float64(draws)*p)
			if sigma > 0 && dev > 5*sigma+3 {
				t.Fatalf("trial %d index %d: count %d deviates %g sigma (p=%g)",
					trial, i, c, dev/sigma, p)
			}
		}
	}
}

func TestBadWeights(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		{0, 0, 0},
		{1, -1},
		{math.NaN()},
		{math.Inf(1)},
	}
	for _, w := range cases {
		if _, err := NewAlias(w); err == nil {
			t.Errorf("NewAlias(%v) accepted bad weights", w)
		}
		if _, err := NewCDF(w); err == nil {
			t.Errorf("NewCDF(%v) accepted bad weights", w)
		}
	}
}

func TestSingleElement(t *testing.T) {
	a, err := NewAlias([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(1)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("single-element alias must always draw 0")
		}
	}
	if a.Prob(0) != 1 {
		t.Fatal("single-element Prob(0) != 1")
	}
}

func TestDegenerateSpike(t *testing.T) {
	// One huge weight among tiny ones — alias construction must stay exact.
	w := make([]float64, 100)
	for i := range w {
		w[i] = 1e-12
	}
	w[37] = 1.0
	a, err := NewAlias(w)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(5)
	hits := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		if a.Sample(r) == 37 {
			hits++
		}
	}
	if hits < draws*99/100 {
		t.Fatalf("spike drawn only %d/%d times", hits, draws)
	}
}

func TestSequence(t *testing.T) {
	u := NewUniform(7)
	r := xrand.New(11)
	seq := Sequence(u, r, 1000)
	if len(seq) != 1000 {
		t.Fatalf("len = %d", len(seq))
	}
	for _, v := range seq {
		if v < 0 || v >= 7 {
			t.Fatalf("sequence element %d out of range", v)
		}
	}
	// Deterministic for equal seeds.
	seq2 := Sequence(NewUniform(7), xrand.New(11), 1000)
	for i := range seq {
		if seq[i] != seq2[i] {
			t.Fatal("sequence not deterministic under fixed seed")
		}
	}
}

func TestShuffleSequencePreservesMultiset(t *testing.T) {
	r := xrand.New(21)
	seq := Sequence(NewUniform(50), r, 2000)
	before := map[int32]int{}
	for _, v := range seq {
		before[v]++
	}
	ShuffleSequence(seq, r)
	after := map[int32]int{}
	for _, v := range seq {
		after[v]++
	}
	if len(before) != len(after) {
		t.Fatal("shuffle changed support")
	}
	for k, c := range before {
		if after[k] != c {
			t.Fatalf("count for %d changed %d -> %d", k, c, after[k])
		}
	}
}

func TestIsWeightedInterfaces(t *testing.T) {
	var _ Weighted = (*Uniform)(nil)
	var _ Weighted = (*Alias)(nil)
	var _ Weighted = (*CDF)(nil)
}

func BenchmarkAliasSample(b *testing.B) {
	r := xrand.New(1)
	w := make([]float64, 1<<20)
	for i := range w {
		w[i] = r.Float64() + 0.01
	}
	a, err := NewAlias(w)
	if err != nil {
		b.Fatal(err)
	}
	rr := xrand.New(2)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += a.Sample(rr)
	}
	_ = sink
}

func BenchmarkCDFSample(b *testing.B) {
	r := xrand.New(1)
	w := make([]float64, 1<<20)
	for i := range w {
		w[i] = r.Float64() + 0.01
	}
	c, err := NewCDF(w)
	if err != nil {
		b.Fatal(err)
	}
	rr := xrand.New(2)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += c.Sample(rr)
	}
	_ = sink
}

func BenchmarkSequenceWalk(b *testing.B) {
	// The online cost of pre-generated IS: walking a slice.
	r := xrand.New(1)
	seq := Sequence(NewUniform(1<<20), r, 1<<20)
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += seq[i&(1<<20-1)]
	}
	_ = sink
}
