package balance

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/isasgd/isasgd/internal/xrand"
)

func TestRho(t *testing.T) {
	if got := Rho(nil); got != 0 {
		t.Fatalf("Rho(nil) = %g", got)
	}
	if got := Rho([]float64{2, 2, 2}); got != 0 {
		t.Fatalf("Rho(const) = %g", got)
	}
	// Var({1,2,3,4}) with population normalization = 1.25.
	if got := Rho([]float64{1, 2, 3, 4}); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("Rho = %g, want 1.25", got)
	}
}

func TestPsi(t *testing.T) {
	// Uniform L → ψ = 1 (Cauchy–Schwarz equality case, no IS gain).
	if got := Psi([]float64{3, 3, 3, 3}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Psi(const) = %g, want 1", got)
	}
	// One dominant sample: ψ → 1/n.
	l := make([]float64, 100)
	l[0] = 1e9
	for i := 1; i < 100; i++ {
		l[i] = 1e-9
	}
	if got := Psi(l); math.Abs(got-0.01) > 1e-3 {
		t.Fatalf("Psi(spike) = %g, want ~0.01", got)
	}
	if got := Psi(nil); got != 0 {
		t.Fatalf("Psi(nil) = %g", got)
	}
}

func TestPsiInUnitIntervalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(100)
		l := make([]float64, n)
		for i := range l {
			l[i] = r.Float64()*10 + 1e-6
		}
		p := Psi(l)
		return p > 0 && p <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHeadTailPaperExample(t *testing.T) {
	// Figure 2: L = {1,2,3,4} on 2 nodes. Balanced arrangement puts
	// {x1,x4} on node 1 and {x3,x2} on node 2 (Φ = 5 each).
	l := []float64{1, 2, 3, 4}
	order := HeadTail(l)
	want := []int{0, 3, 1, 2} // Ds asc = [0,1,2,3]; interleaved head/tail
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("HeadTail = %v, want %v", order, want)
		}
	}
	shards := Split(order, 2)
	phis := ImportanceSums(shards, l)
	if phis[0] != 5 || phis[1] != 5 {
		t.Fatalf("Φ = %v, want [5 5]", phis)
	}
	if Imbalance(phis) != 0 {
		t.Fatalf("Imbalance = %g, want 0", Imbalance(phis))
	}
}

func TestHeadTailOddLength(t *testing.T) {
	l := []float64{5, 1, 3}
	order := HeadTail(l)
	if len(order) != 3 {
		t.Fatalf("len = %d", len(order))
	}
	seen := map[int]bool{}
	for _, i := range order {
		seen[i] = true
	}
	if len(seen) != 3 {
		t.Fatalf("HeadTail not a permutation: %v", order)
	}
	// Middle element (value 3, index 2) must be last (Algorithm 3 line 8).
	if order[2] != 2 {
		t.Fatalf("odd middle element misplaced: %v", order)
	}
}

func TestHeadTailIsPermutationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := r.Intn(200)
		l := make([]float64, n)
		for i := range l {
			l[i] = r.Float64()
		}
		order := HeadTail(l)
		if len(order) != n {
			return false
		}
		seen := make([]bool, n)
		for _, i := range order {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeadTailBeatsSortedProperty(t *testing.T) {
	// Property: head–tail balancing never yields a worse Φ-imbalance than
	// sorted-descending order, the worst case for contiguous sharding.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 4 + r.Intn(400)
		parts := 2 + r.Intn(7)
		l := make([]float64, n)
		for i := range l {
			l[i] = math.Exp(2 * r.NormFloat64())
		}
		_, desc := sortFuncOrders(l)
		ht := Imbalance(ImportanceSums(Split(HeadTail(l), parts), l))
		srt := Imbalance(ImportanceSums(Split(desc, parts), l))
		return ht <= srt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitSizes(t *testing.T) {
	order := make([]int, 10)
	for i := range order {
		order[i] = i
	}
	shards := Split(order, 3)
	if len(shards) != 3 {
		t.Fatalf("parts = %d", len(shards))
	}
	if len(shards[0]) != 4 || len(shards[1]) != 3 || len(shards[2]) != 3 {
		t.Fatalf("shard sizes = %d,%d,%d", len(shards[0]), len(shards[1]), len(shards[2]))
	}
	// All elements present exactly once, contiguously.
	k := 0
	for _, s := range shards {
		for _, v := range s {
			if v != k {
				t.Fatalf("Split not contiguous at %d", k)
			}
			k++
		}
	}
}

func TestSplitMoreWorkersThanItems(t *testing.T) {
	shards := Split([]int{0, 1}, 5)
	nonEmpty := 0
	for _, s := range shards {
		if len(s) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 2 || len(shards) != 5 {
		t.Fatalf("unexpected shard layout: %v", shards)
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	if Imbalance(nil) != 0 {
		t.Fatal("Imbalance(nil) != 0")
	}
	if Imbalance([]float64{0, 0}) != 0 {
		t.Fatal("Imbalance(zeros) != 0")
	}
	if got := Imbalance([]float64{1, 3}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Imbalance([1,3]) = %g, want 1", got)
	}
}

func TestInflation(t *testing.T) {
	for _, c := range []struct {
		phis []float64
		want float64
	}{
		{nil, 0}, {[]float64{0, 0}, 0}, {[]float64{5, 5}, 1}, {[]float64{3, 7}, 2 * 58.0 / 100},
		{[]float64{1, 0, 0, 0}, 4}, // all weight on one of K shards: the bound K
	} {
		if got := Inflation(c.phis); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Inflation(%v) = %g, want %g", c.phis, got, c.want)
		}
	}
}

func TestPlanForcedModes(t *testing.T) {
	l := []float64{1, 2, 3, 4, 5, 6}
	order, d := Plan(l, 3, ForceBalance, xrand.New(4))
	if !d.Balanced || d.Zeta != DefaultZeta || !slices.Equal(order, HeadTail(l)) {
		t.Fatalf("ForceBalance plan order=%v decision=%+v", order, d)
	}
	order, d = Plan(l, 3, ForceShuffle, xrand.New(4))
	if d.Balanced || !slices.Equal(order, xrand.New(4).Perm(len(l))) {
		t.Fatalf("ForceShuffle plan order=%v decision=%+v", order, d)
	}
	var zero Mode
	if zero != ForceShuffle {
		t.Fatalf("the zero Mode is %v, want shuffle", zero)
	}
}

func TestPlanImbalanceOrdering(t *testing.T) {
	// The decision's shard statistics are those of the order's
	// contiguous split, and on a skewed L head–tail still beats the
	// sorted worst case.
	r := xrand.New(5)
	l := make([]float64, 600)
	for i := range l {
		l[i] = math.Exp(2 * r.NormFloat64())
	}
	for _, mode := range []Mode{ForceBalance, ForceShuffle} {
		order, d := Plan(l, 8, mode, r)
		phis := ImportanceSums(Split(order, 8), l)
		if d.Imbalance != Imbalance(phis) || d.Inflation != Inflation(phis) || d.Rho != Rho(l) || d.Psi != Psi(l) {
			t.Fatalf("%v: decision %+v does not describe its order", mode, d)
		}
	}
	_, db := Plan(l, 8, ForceBalance, r)
	_, desc := sortFuncOrders(l)
	if sorted := Imbalance(ImportanceSums(Split(desc, 8), l)); db.Imbalance >= sorted {
		t.Fatalf("balance imbalance %g not better than sorted %g", db.Imbalance, sorted)
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{ForceShuffle: "shuffle", ForceBalance: "balance", Mode(42): "Mode(42)"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestShardsDeterministicAcrossCallers(t *testing.T) {
	l := []float64{9, 1, 4, 4, 7, 2, 3, 8, 5, 6}
	// Two independent callers with the same seed (two cluster nodes
	// planning locally) must agree on every shard.
	orderA, decA := Plan(l, 3, ForceShuffle, xrand.New(7))
	orderB, decB := Plan(l, 3, ForceShuffle, xrand.New(7))
	a, b := Split(orderA, 3), Split(orderB, 3)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("shard counts = %d, %d, want 3", len(a), len(b))
	}
	for s := range a {
		if !slices.Equal(a[s], b[s]) {
			t.Fatalf("shard %d differs: %v vs %v", s, a[s], b[s])
		}
	}
	if decA != decB {
		t.Fatalf("decisions differ: %+v vs %+v", decA, decB)
	}
	// The shards together cover every index exactly once.
	seen := make(map[int]bool)
	for _, sh := range a {
		for _, i := range sh {
			if seen[i] {
				t.Fatalf("index %d assigned twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(l) {
		t.Fatalf("covered %d of %d indices", len(seen), len(l))
	}
}

// TestSortsMatchStableReference: HeadTail breaks ties on the index,
// which is the order sort.SliceStable gives from the identity, on untied weights and on weights with a few tied levels.
func TestSortsMatchStableReference(t *testing.T) {
	r := xrand.New(9)
	for _, levels := range []int{0, 1, 3, 50} { // 0: continuous, untied
		for _, n := range []int{0, 1, 2, 7, 1000} {
			l := make([]float64, n)
			for i := range l {
				if levels == 0 {
					l[i] = r.Float64()
				} else {
					l[i] = float64(r.Intn(levels))
				}
			}
			asc := make([]int, n)
			for i := range asc {
				asc[i] = i
			}
			sort.SliceStable(asc, func(a, b int) bool { return l[asc[a]] < l[asc[b]] })
			var headTail []int
			for i := 0; i < n/2; i++ {
				headTail = append(headTail, asc[i], asc[n-1-i])
			}
			if n%2 == 1 {
				headTail = append(headTail, asc[n/2])
			}
			if got := HeadTail(l); !slices.Equal(got, headTail) {
				t.Fatalf("levels %d, n %d: HeadTail = %v, want %v", levels, n, got, headTail)
			}
		}
	}
}

// sortFuncOrders is the comparison-sort reference for HeadTail, and the
// sorted-descending order, the worst case of contiguous sharding:
// slices.SortFunc on cmp.Compare with ties broken on the index.
func sortFuncOrders(l []float64) (headTail, desc []int) {
	asc, desc := make([]int, len(l)), make([]int, len(l))
	for i := range asc {
		asc[i], desc[i] = i, i
	}
	slices.SortFunc(asc, func(a, b int) int { return cmp.Or(cmp.Compare(l[a], l[b]), a-b) })
	slices.SortFunc(desc, func(a, b int) int { return cmp.Or(cmp.Compare(l[b], l[a]), a-b) })
	n := len(l)
	headTail = make([]int, 0, n)
	for i := 0; i < n/2; i++ {
		headTail = append(headTail, asc[i], asc[n-1-i])
	}
	if n%2 == 1 {
		headTail = append(headTail, asc[n/2])
	}
	return headTail, desc
}

// checkOrders fails unless HeadTail equals the reference.
func checkOrders(t *testing.T, name string, l []float64) {
	t.Helper()
	headTail, _ := sortFuncOrders(l)
	if got := HeadTail(l); !slices.Equal(got, headTail) {
		t.Fatalf("%s: HeadTail = %v, want %v", name, got, headTail)
	}
}

// TestHeadTailMatchesSortFunc: HeadTail's stable sort equals the
// comparison sort with an index tie-break on every size class, on heavy
// ties, and on the weights whose order is easy to get wrong: NaN (every
// payload and sign equal, below everything), ±0 (equal), ±Inf,
// subnormals and negatives, and weights a few ulps apart.
func TestHeadTailMatchesSortFunc(t *testing.T) {
	nan2 := math.Float64frombits(0xfff8_0000_0000_0001) // a negative NaN with a payload
	specials := []float64{math.NaN(), nan2, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		-1, 1, -2.5, 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, 0.25}
	r := xrand.New(63)
	fill := func(n int, f func(i int) float64) []float64 {
		l := make([]float64, n)
		for i := range l {
			l[i] = f(i)
		}
		return l
	}
	for _, n := range []int{0, 1, 2, 3, 101, 90000} {
		cases := []struct {
			name string
			l    []float64
		}{
			{"continuous", fill(n, func(int) float64 { return r.Float64()*4 + 1e-4 })},
			{"lognormal", fill(n, func(int) float64 { return math.Exp(3 * r.NormFloat64()) })},
			{"ties", fill(n, func(int) float64 { return float64(r.Intn(3)) })},
			{"constant", fill(n, func(int) float64 { return 7 })},
			{"ulps", fill(n, func(int) float64 { return 1.5 + float64(r.Intn(1<<20))*0x1p-52 })},
			{"signed", fill(n, func(int) float64 { return r.NormFloat64() })},
			{"specials", fill(n, func(int) float64 { return specials[r.Intn(len(specials))] })},
		}
		for _, c := range cases {
			checkOrders(t, fmt.Sprintf("%s n=%d", c.name, n), c.l)
		}
	}
	checkOrders(t, "all specials", specials)
}

// FuzzHeadTail checks HeadTail against the comparison
// sort on arbitrary weights. An even first byte reads the rest as
// float64 bit patterns, 8 bytes each (every NaN payload, subnormal and
// sign); an odd one reads each further byte as a pick among 16 values,
// so ties and the special values come often.
func FuzzHeadTail(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 3, 3, 2, 2, 2, 3, 0, 0, 1, 15})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0xf8, 0xff, 1, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	palette := []float64{math.NaN(), math.Float64frombits(0xfff8_0000_0000_0001), 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), 1, -1, 2, -2, 5e-324, -5e-324, 0.5, 1e300, -1e-300, 3}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			checkOrders(t, "empty", nil)
			return
		}
		mode, raw := raw[0], raw[1:]
		var l []float64
		if mode%2 == 0 {
			for ; len(raw) >= 8; raw = raw[8:] {
				l = append(l, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			}
		} else {
			for _, b := range raw {
				l = append(l, palette[b%16])
			}
		}
		checkOrders(t, "fuzz", l)
	})
}
