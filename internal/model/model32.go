// Float32 model storage. Sparse SGD is memory-bandwidth-bound (the
// regime the paper targets with lock-free racy updates), so halving the
// bytes per coordinate halves the traffic of the dominant loads and
// stores. The float32 models mirror the float64 pair exactly:
//
//   - Racy32: a plain []float32 updated without synchronization — the
//     Hogwild noise model at half the memory traffic.
//   - Atomic32: each coordinate is a float32 stored in an atomic.Uint32
//     bit pattern; reads are atomic loads, updates CAS loops.
//
// Both satisfy Params, with float64 ⇄ float32 conversion confined to the
// interface boundary (Snapshot/Load/Get/Add/Dot); the hot paths go
// through internal/kernel's monomorphic float32 specializations, which
// access the raw storage via Raw32/Bits32 and never convert per element.
//
// Racy32 additionally offers a feature-blocked (cache-line-grouped)
// layout: coordinate j is scattered to slot (j mod 16)·stride + j/16, so
// id-adjacent features — typically co-hot under frequency-ordered
// encodings — land on distinct 64-byte lines, cutting false sharing
// between Hogwild workers. The scatter is arithmetic (no permutation
// table, no extra loads); consumers remap row indices once at ingestion
// (see Slot/RemapInto) and the update kernels run unchanged on the
// physical slots. Snapshot/Load translate between the logical and
// physical orders, so everything outside the hot loop — checkpoints,
// snapshot publication, serving — sees canonical coordinate order.
package model

import (
	"math"
	"sync/atomic"
)

// lanes32 is the blocked-layout group width: 16 float32 per 64-byte
// cache line.
const lanes32 = 16

// Racy32 is the float32 Hogwild model vector: plain loads and stores,
// conflicting concurrent writers may lose updates (the algorithm's noise
// model, exactly as Racy).
type Racy32 struct {
	w      []float32
	dim    int
	stride int // 0 = flat identity layout; > 0 = blocked scatter
}

// NewRacy32 returns a zero-initialized flat Racy32 of dimension d.
func NewRacy32(d int) *Racy32 { return &Racy32{w: make([]float32, d), dim: d} }

// NewRacy32Blocked returns a zero-initialized Racy32 of logical
// dimension d in the feature-blocked layout. The physical slice is
// padded to a multiple of 16 coordinates; padding slots are never
// addressed by a valid logical index and stay zero.
func NewRacy32Blocked(d int) *Racy32 {
	stride := (d + lanes32 - 1) / lanes32
	return &Racy32{w: make([]float32, stride*lanes32), dim: d, stride: stride}
}

// Dim returns the logical dimensionality.
func (m *Racy32) Dim() int { return m.dim }

// Blocked reports whether the model uses the feature-blocked layout.
func (m *Racy32) Blocked() bool { return m.stride > 0 }

// Slot maps a logical coordinate to its physical index. Identity for
// flat models.
func (m *Racy32) Slot(j int32) int32 {
	if m.stride == 0 {
		return j
	}
	return (j%lanes32)*int32(m.stride) + j/lanes32
}

// RemapInto writes the physical slot of every logical index in idx to
// dst (which must be at least as long) and returns dst[:len(idx)].
// Consumers remap each row once at ingestion so the hot loop indexes
// physical storage directly.
func (m *Racy32) RemapInto(dst, idx []int32) []int32 {
	dst = dst[:len(idx)]
	for k, j := range idx {
		dst[k] = m.Slot(j)
	}
	return dst
}

// Get returns logical coordinate j with a plain load.
func (m *Racy32) Get(j int32) float64 { return float64(m.w[m.Slot(j)]) }

// Add adds delta to logical coordinate j with a plain read-modify-write
// (Hogwild semantics; the sum rounds through float32).
func (m *Racy32) Add(j int32, delta float64) {
	s := m.Slot(j)
	m.w[s] = float32(float64(m.w[s]) + delta)
}

// Dot returns Σ_k val[k]·w[idx[k]] with plain loads, accumulating in
// float64 (the interface contract; the monomorphic kernels use the
// float32-native path instead).
func (m *Racy32) Dot(idx []int32, val []float64) float64 {
	s := 0.0
	if m.stride == 0 {
		for k, j := range idx {
			s += val[k] * float64(m.w[j])
		}
		return s
	}
	for k, j := range idx {
		s += val[k] * float64(m.w[m.Slot(j)])
	}
	return s
}

// Snapshot copies the model into dst in logical coordinate order,
// widening to float64 — the one conversion point between the f32
// training path and every f64 consumer (evaluation, checkpoints,
// snapshot publication).
func (m *Racy32) Snapshot(dst []float64) []float64 {
	dst = sized(dst, m.dim)
	m.SnapshotRange(dst, 0, m.dim)
	return dst
}

// SnapshotRange widens logical coordinates [lo, hi) into dst[lo:hi] and
// reports whether all of them are finite.
func (m *Racy32) SnapshotRange(dst []float64, lo, hi int) bool {
	var acc uint32
	if m.stride == 0 {
		src, dst := m.w[lo:hi], dst[lo:hi]
		for j := range dst {
			dst[j] = float64(src[j])
			acc |= nonFinite32(math.Float32bits(src[j]))
		}
		return acc>>31 == 0
	}
	for j := lo; j < hi; j++ {
		v := m.w[m.Slot(int32(j))]
		dst[j] = float64(v)
		acc |= nonFinite32(math.Float32bits(v))
	}
	return acc>>31 == 0
}

// Load overwrites the model with src (logical order), rounding to
// float32.
func (m *Racy32) Load(src []float64) {
	if m.stride == 0 {
		for j, v := range src {
			m.w[j] = float32(v)
		}
		return
	}
	for j, v := range src {
		m.w[m.Slot(int32(j))] = float32(v)
	}
}

// Raw32 exposes the physical backing slice for the devirtualized float32
// kernels. For blocked models the slice is padded and physically
// permuted — indices passed to the kernels must already be Slot-mapped.
func (m *Racy32) Raw32() []float32 { return m.w }

// Atomic32 is the race-free float32 model vector: CAS loops on uint32
// bit patterns. Always flat (the CAS path's cost is the contention
// itself, which blocking does not address).
type Atomic32 struct {
	bits []atomic.Uint32
}

// NewAtomic32 returns a zero-initialized Atomic32 of dimension d.
func NewAtomic32(d int) *Atomic32 { return &Atomic32{bits: make([]atomic.Uint32, d)} }

// Dim returns the dimensionality.
func (m *Atomic32) Dim() int { return len(m.bits) }

// Get returns coordinate j with an atomic load.
func (m *Atomic32) Get(j int32) float64 {
	return float64(math.Float32frombits(m.bits[j].Load()))
}

// Add adds delta to coordinate j with a CAS loop; no update is lost.
// The sum rounds through float32.
func (m *Atomic32) Add(j int32, delta float64) {
	b := &m.bits[j]
	for {
		old := b.Load()
		next := math.Float32bits(float32(float64(math.Float32frombits(old)) + delta))
		if b.CompareAndSwap(old, next) {
			return
		}
	}
}

// Dot returns Σ_k val[k]·w[idx[k]] using atomic loads, accumulating in
// float64 (interface contract; kernels use the float32-native path).
func (m *Atomic32) Dot(idx []int32, val []float64) float64 {
	s := 0.0
	for k, j := range idx {
		s += val[k] * float64(math.Float32frombits(m.bits[j].Load()))
	}
	return s
}

// Snapshot copies the model into dst, widening to float64.
func (m *Atomic32) Snapshot(dst []float64) []float64 {
	dst = sized(dst, len(m.bits))
	m.SnapshotRange(dst, 0, len(dst))
	return dst
}

// SnapshotRange widens coordinates [lo, hi) into dst[lo:hi] and reports
// whether all of them are finite.
func (m *Atomic32) SnapshotRange(dst []float64, lo, hi int) bool {
	src, dst := m.bits[lo:hi], dst[lo:hi]
	var acc uint32
	for i := range dst {
		b := src[i].Load()
		dst[i] = float64(math.Float32frombits(b))
		acc |= nonFinite32(b)
	}
	return acc>>31 == 0
}

// Load overwrites the model with src, rounding to float32.
func (m *Atomic32) Load(src []float64) {
	for i, v := range src {
		m.bits[i].Store(math.Float32bits(float32(v)))
	}
}

// Bits32 exposes the backing atomic bit-pattern slice for the
// specialized float32 CAS kernels. All access through the returned slice
// must remain Load/CompareAndSwap/Store.
func (m *Atomic32) Bits32() []atomic.Uint32 { return m.bits }
