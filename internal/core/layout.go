package core

// goldenFrac is (√5−1)/2, the fractional part of the golden ratio. A
// multi-worker engine stores logical coordinate j at physical slot
// a·j mod dim with a the first integer ≥ ⌊dim·goldenFrac⌋ coprime with
// dim. The synthetic corpora, like real ones, number features by
// popularity, so without the relabelling the hottest coordinates 0, 1,
// 2, … share cache lines (16 to a line in float32), and Hogwild workers
// that write different hot coordinates still bounce the same lines
// between cores. By the three-distance theorem the golden multiple
// spreads any prefix 0…n−1 of the ids most evenly around the slots: at
// dim = 120 000 the 1 024 hottest ids land at least 48 floats apart.
//
// Measured on batch_dense (throughput_per_s, 2-vCPU Xeon, seed 7, 8 rounds
// of three builds that differ only in the multiplier, in rotating
// order): the golden rule gained ×1.12 over the identity layout (7 of
// 8 rounds won), the fixed prime 1 000 003 ×1.09 (6 of 8), and golden
// beat prime in 5 of 8. That prime is 40 003 ≈ dim/3 modulo 120 000, so
// ids j and j+3 land 9 floats apart, on one line.
const goldenFrac = 0.6180339887498949

// spreadMinDim is the smallest dimension the layout relabels: below it
// the whole model spans a few cache lines, and the identity is kept.
const spreadMinDim = 64

// layout is an engine's coordinate relabelling: logical coordinate j
// lives at physical slot a·j mod dim. With a coprime with dim the map is
// a bijection, and walking j upward visits the slots by adding a and
// subtracting dim on wrap, so no index pays a division. a = 1 is the
// identity, which one worker and small dims keep.
type layout struct{ a, dim int }

// newLayout returns the layout of a dim-coordinate model updated by
// threads workers.
func newLayout(dim, threads int) layout {
	if threads < 2 || dim < spreadMinDim {
		return layout{a: 1, dim: dim}
	}
	a := int(float64(dim) * goldenFrac)
	for gcd(a, dim) != 1 {
		a++
	}
	return layout{a: a, dim: dim}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// identity reports whether the layout leaves every coordinate in place.
func (l layout) identity() bool { return l.a == 1 }

// slots returns the dim-entry table of every logical coordinate's
// slot, built by the add-and-wrap walk.
func (l layout) slots() []int32 {
	slot := make([]int32, l.dim)
	p := 0
	for j := range slot {
		slot[j] = int32(p)
		if p += l.a; p >= l.dim {
			p -= l.dim
		}
	}
	return slot
}

// gather writes the physical vector phys into dst in logical order.
func (l layout) gather(dst, phys []float64) {
	p := 0
	for j := range dst {
		dst[j] = phys[p]
		if p += l.a; p >= l.dim {
			p -= l.dim
		}
	}
}

// scatter writes the logical vector src into phys in physical order.
func (l layout) scatter(phys, src []float64) {
	p := 0
	for _, v := range src {
		phys[p] = v
		if p += l.a; p >= l.dim {
			p -= l.dim
		}
	}
}
