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
package model

import (
	"math"
	"sync/atomic"
)

// Racy32 is the float32 Hogwild model vector: plain loads and stores,
// conflicting concurrent writers may lose updates (the algorithm's noise
// model, exactly as Racy).
type Racy32 struct {
	w []float32
}

// NewRacy32 returns a zero-initialized Racy32 of dimension d.
func NewRacy32(d int) *Racy32 { return &Racy32{w: make([]float32, d)} }

// Dim returns the dimensionality.
func (m *Racy32) Dim() int { return len(m.w) }

// Get returns coordinate j with a plain load.
func (m *Racy32) Get(j int32) float64 { return float64(m.w[j]) }

// Add adds delta to coordinate j with a plain read-modify-write
// (Hogwild semantics; the sum rounds through float32).
func (m *Racy32) Add(j int32, delta float64) {
	m.w[j] = float32(float64(m.w[j]) + delta)
}

// Dot returns Σ_k val[k]·w[idx[k]] with plain loads, accumulating in
// float64 (the interface contract; the monomorphic kernels use the
// float32-native path instead).
func (m *Racy32) Dot(idx []int32, val []float64) float64 {
	s := 0.0
	for k, j := range idx {
		s += val[k] * float64(m.w[j])
	}
	return s
}

// Snapshot copies the model into dst, widening to float64 — the one
// conversion point between the f32 training path and every f64 consumer
// (evaluation, checkpoints, snapshot publication).
func (m *Racy32) Snapshot(dst []float64) []float64 {
	dst = sized(dst, len(m.w))
	m.SnapshotRange(dst, 0, len(dst))
	return dst
}

// SnapshotRange widens coordinates [lo, hi) into dst[lo:hi] and reports
// whether all of them are finite.
func (m *Racy32) SnapshotRange(dst []float64, lo, hi int) bool {
	src, dst := m.w[lo:hi], dst[lo:hi]
	var acc uint32
	for j := range dst {
		dst[j] = float64(src[j])
		acc |= nonFinite32(math.Float32bits(src[j]))
	}
	return acc>>31 == 0
}

// SnapshotIdx widens the listed coordinates into dst and reports
// whether all of them are finite.
func (m *Racy32) SnapshotIdx(dst []float64, idx []int32) bool {
	var acc uint32
	for _, j := range idx {
		v := m.w[j]
		dst[j] = float64(v)
		acc |= nonFinite32(math.Float32bits(v))
	}
	return acc>>31 == 0
}

// Load overwrites the model with src, rounding to float32.
func (m *Racy32) Load(src []float64) {
	for j, v := range src {
		m.w[j] = float32(v)
	}
}

// Raw32 exposes the backing slice for the devirtualized float32 kernels.
func (m *Racy32) Raw32() []float32 { return m.w }

// Atomic32 is the race-free float32 model vector: CAS loops on uint32
// bit patterns.
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

// SnapshotIdx widens the listed coordinates into dst and reports
// whether all of them are finite.
func (m *Atomic32) SnapshotIdx(dst []float64, idx []int32) bool {
	var acc uint32
	for _, j := range idx {
		b := m.bits[j].Load()
		dst[j] = float64(math.Float32frombits(b))
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
