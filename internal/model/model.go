// Package model provides the shared model vector that Hogwild-style
// solvers update concurrently.
//
// Two implementations are offered:
//
//   - Atomic: each coordinate is a float64 stored in an atomic.Uint64 bit
//     pattern; reads are atomic loads and updates are CAS loops. This is
//     race-free under the Go memory model, at the cost of a CAS per
//     touched coordinate. No update is ever lost.
//
//   - Racy: a plain []float64 updated without synchronization — the
//     paper's (and Hogwild's) true lock-free scheme, where rare lost
//     updates on conflicting coordinates are part of the algorithm's
//     noise model (the θ_t term of the perturbed-iterate analysis,
//     Section 3.1). This is deliberately racy; tests exercising it
//     concurrently are skipped under the race detector.
//
// Sequential solvers use Racy (no synchronization cost); asynchronous
// solvers default to Atomic and can opt into Racy via configuration.
package model

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// Params is the coordinate-access interface shared by both model kinds.
// Implementations must make Get/Add/Dot safe to call concurrently to the
// degree documented by the concrete type.
type Params interface {
	// Dim returns the dimensionality.
	Dim() int
	// Get returns coordinate j.
	Get(j int32) float64
	// Add atomically (for Atomic) adds delta to coordinate j.
	Add(j int32, delta float64)
	// Dot returns the inner product with the sparse pattern (idx, val).
	Dot(idx []int32, val []float64) float64
	// Snapshot copies the model into dst (allocating if dst is short)
	// and returns it. The copy is not required to be a consistent cut
	// under concurrent updates — the consumers (evaluation, SVRG
	// snapshots) tolerate the same inconsistency the algorithm does.
	Snapshot(dst []float64) []float64
	// SnapshotRange copies coordinates [lo, hi) into dst[lo:hi] — dst is
	// at least Dim long — and reports whether every value copied is
	// finite, checked on the way through. Disjoint ranges of one dst may
	// be cut from different goroutines at once; together they make the
	// same (inconsistent under concurrent updates) cut Snapshot makes.
	SnapshotRange(dst []float64, lo, hi int) bool
	// SnapshotIdx is SnapshotRange over the listed coordinates instead of
	// a range: it copies coordinate j into dst[j] for every j in idx and
	// reports whether every value copied is finite. The other entries of
	// dst are left as they are, and a coordinate listed twice is copied
	// twice.
	SnapshotIdx(dst []float64, idx []int32) bool
	// Load overwrites the model with src.
	Load(src []float64)
}

// Atomic is a race-free shared model vector.
type Atomic struct {
	bits []atomic.Uint64
}

// NewAtomic returns a zero-initialized Atomic model of dimension d.
func NewAtomic(d int) *Atomic {
	return &Atomic{bits: make([]atomic.Uint64, d)}
}

// Dim returns the dimensionality.
func (m *Atomic) Dim() int { return len(m.bits) }

// Get returns coordinate j with an atomic load.
func (m *Atomic) Get(j int32) float64 {
	return math.Float64frombits(m.bits[j].Load())
}

// Add adds delta to coordinate j with a CAS loop; no update is lost.
func (m *Atomic) Add(j int32, delta float64) {
	b := &m.bits[j]
	for {
		old := b.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if b.CompareAndSwap(old, next) {
			return
		}
	}
}

// Dot returns Σ_k val[k] * w[idx[k]] using atomic loads.
func (m *Atomic) Dot(idx []int32, val []float64) float64 {
	s := 0.0
	for k, j := range idx {
		s += val[k] * math.Float64frombits(m.bits[j].Load())
	}
	return s
}

// Snapshot copies the model into dst.
func (m *Atomic) Snapshot(dst []float64) []float64 {
	dst = sized(dst, len(m.bits))
	m.SnapshotRange(dst, 0, len(dst))
	return dst
}

// SnapshotRange copies coordinates [lo, hi) into dst[lo:hi] and reports
// whether all of them are finite.
func (m *Atomic) SnapshotRange(dst []float64, lo, hi int) bool {
	src, dst := m.bits[lo:hi], dst[lo:hi]
	var acc uint64
	for i := range dst {
		b := src[i].Load()
		dst[i] = math.Float64frombits(b)
		acc |= nonFinite64(b)
	}
	return acc>>63 == 0
}

// SnapshotIdx copies the listed coordinates into dst and reports
// whether all of them are finite.
func (m *Atomic) SnapshotIdx(dst []float64, idx []int32) bool {
	var acc uint64
	for _, j := range idx {
		b := m.bits[j].Load()
		dst[j] = math.Float64frombits(b)
		acc |= nonFinite64(b)
	}
	return acc>>63 == 0
}

// Load overwrites the model with src.
func (m *Atomic) Load(src []float64) {
	for i, v := range src {
		m.bits[i].Store(math.Float64bits(v))
	}
}

// Bits exposes the backing atomic bit-pattern slice for the specialized
// update kernels (internal/kernel), which fuse the regularizer
// derivative into the CAS loop instead of paying a separate Get load
// per coordinate. All access through the returned slice must remain
// Load/CompareAndSwap/Store — the same operations the methods use.
func (m *Atomic) Bits() []atomic.Uint64 { return m.bits }

// Racy is the paper's unsynchronized shared model vector. Concurrent use
// is intentionally racy (see the package comment); use Atomic when the
// race detector is enabled.
type Racy struct {
	w []float64
}

// NewRacy returns a zero-initialized Racy model of dimension d.
func NewRacy(d int) *Racy {
	return &Racy{w: make([]float64, d)}
}

// Dim returns the dimensionality.
func (m *Racy) Dim() int { return len(m.w) }

// Get returns coordinate j with a plain load.
func (m *Racy) Get(j int32) float64 { return m.w[j] }

// Add adds delta to coordinate j with a plain read-modify-write; under
// concurrency, conflicting writers may lose updates (Hogwild semantics).
func (m *Racy) Add(j int32, delta float64) { m.w[j] += delta }

// Dot returns Σ_k val[k] * w[idx[k]] with plain loads.
func (m *Racy) Dot(idx []int32, val []float64) float64 {
	s := 0.0
	for k, j := range idx {
		s += val[k] * m.w[j]
	}
	return s
}

// Snapshot copies the model into dst.
func (m *Racy) Snapshot(dst []float64) []float64 {
	dst = sized(dst, len(m.w))
	copy(dst, m.w)
	return dst
}

// SnapshotRange copies coordinates [lo, hi) into dst[lo:hi] and reports
// whether all of them are finite.
func (m *Racy) SnapshotRange(dst []float64, lo, hi int) bool {
	copy(dst[lo:hi], m.w[lo:hi])
	return FirstNonFinite(dst[lo:hi]) < 0
}

// SnapshotIdx copies the listed coordinates into dst and reports
// whether all of them are finite.
func (m *Racy) SnapshotIdx(dst []float64, idx []int32) bool {
	var acc uint64
	for _, j := range idx {
		v := m.w[j]
		dst[j] = v
		acc |= nonFinite64(math.Float64bits(v))
	}
	return acc>>63 == 0
}

// Load overwrites the model with src.
func (m *Racy) Load(src []float64) { copy(m.w, src) }

// Raw exposes the backing slice for devirtualized hot loops: sequential
// solvers, and internal/kernel's Racy specializations, whose concurrent
// use through the slice is the same deliberate Hogwild racing as using
// Get/Add concurrently (see the package comment). Callers that need
// race-free access must use Atomic instead.
func (m *Racy) Raw() []float64 { return m.w }

// Kind selects a model implementation by name.
type Kind int

const (
	// KindAtomic is the race-free CAS model (default for async solvers).
	KindAtomic Kind = iota
	// KindRacy is the plain unsynchronized model (true Hogwild).
	KindRacy
	// KindAtomic32 is the race-free CAS model over float32 bit patterns.
	KindAtomic32
	// KindRacy32 is the unsynchronized float32 model.
	KindRacy32
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindAtomic:
		return "atomic"
	case KindRacy:
		return "racy"
	case KindAtomic32:
		return "atomic32"
	case KindRacy32:
		return "racy32"
	default:
		return "unknown"
	}
}

// Is32 reports whether the kind stores float32 coordinates.
func (k Kind) Is32() bool {
	return k == KindAtomic32 || k == KindRacy32
}

// As32 returns the float32 counterpart of a float64 kind (identity for
// kinds that already are float32).
func (k Kind) As32() Kind {
	switch k {
	case KindAtomic:
		return KindAtomic32
	case KindRacy:
		return KindRacy32
	default:
		return k
	}
}

// Canonical precision names for the training configs' Precision knob.
const (
	PrecisionF64 = "f64"
	PrecisionF32 = "f32"
)

// ParsePrecision normalizes a -precision flag value to the canonical
// name. The empty string means "unset" and resolves to PrecisionF64.
func ParsePrecision(s string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "f64", "fp64", "float64", "double":
		return PrecisionF64, nil
	case "f32", "fp32", "float32", "single":
		return PrecisionF32, nil
	}
	return "", fmt.Errorf("model: unknown precision %q (want f64 or f32)", s)
}

// New constructs a model of the given kind and dimension.
func New(k Kind, d int) Params {
	switch k {
	case KindRacy:
		return NewRacy(d)
	case KindAtomic32:
		return NewAtomic32(d)
	case KindRacy32:
		return NewRacy32(d)
	default:
		return NewAtomic(d)
	}
}

// sized returns dst resized to n coordinates, reallocating only when its
// capacity falls short.
func sized(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// nonFinite64 has bit 63 set exactly when b is the bit pattern of a NaN
// or ±Inf float64: one more exponent LSB carries out of the exponent
// field only when the field is all ones. OR-ing it over a vector screens
// the whole vector without a branch per coordinate. nonFinite32 is the
// float32 analog on bit 31.
func nonFinite64(b uint64) uint64 { return b&(0x7ff<<52) + 1<<52 }
func nonFinite32(b uint32) uint32 { return b&(0xff<<23) + 1<<23 }

// FirstNonFinite returns the index of the first NaN or ±Inf entry of w,
// or -1 when every weight is finite. It is the one shared divergence
// check behind core.Train's finiteness gate, the streaming trainer,
// checkpoint validation and snapshot publication.
func FirstNonFinite(w []float64) int {
	// Finite throughout is the case that matters: screen without
	// branching, and look for the index only after a hit.
	var acc uint64
	for _, v := range w {
		acc |= nonFinite64(math.Float64bits(v))
	}
	if acc>>63 == 0 {
		return -1
	}
	for j, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return j
		}
	}
	return -1
}
