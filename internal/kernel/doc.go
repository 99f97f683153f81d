// Package kernel is the devirtualized hot-path layer shared by every
// consumer of the per-sample SGD update: the Algorithm-4 engine
// (internal/core), the streaming trainer (internal/stream), the
// SVRG/SAGA solvers (internal/solver) and the prediction paths
// (internal/serve, internal/stream evaluation).
//
// # Why it exists
//
// The paper's whole performance argument (Section 4.2) is that
// importance sampling's online cost can be driven down to plain ASGD's
// — sequences are pre-generated offline, so the per-update constant
// factor is the product being sold. The seed implementation paid an
// interface-dispatch call (model.Params.Get/Add/Dot) per nonzero
// coordinate, plus a second Get per coordinate to evaluate the
// regularizer derivative that Add's own load had already fetched, and
// the loop was duplicated (with drift) across core, stream and the
// SVRG/SAGA solvers. This package makes the update semantics live in
// exactly one place and makes the common case monomorphic.
//
// # One kernel per weight storage
//
// There are four specialized kernel types, one per (storage, element
// width): racy64 on model.Racy's []float64, atomic64 on model.Atomic's
// CAS bit patterns, and racy32 / atomic32 on their float32 counterparts
// (racy32 also serves the feature-blocked layout — it sees only physical
// storage). Each is written once and carries the regularizer as a small
// field (regKind: None, L1 or L2, with its strength). New and New32
// type-switch once, at construction — the model's concrete type never
// changes mid-run — and fall back to the interface-based kernels
// (Reference, reference32) for an out-of-tree model or regularizer.
//
// All kernels fuse the regularizer into the gradient write pass — the
// per-coordinate update is a single read-modify-write
//
//	w[j] -= s·(g·x[k] + reg'(w[j]))
//
// evaluated on one load of w[j] (inside the CAS loop, on the compare
// value, for the atomic storages), eliminating both the redundant Get
// and the second interface call of the seed's
// m.Add(j, -s*(g*x[k]+reg.DerivAt(m.Get(j)))).
//
// Where the regularizer is resolved depends on how hot the loop is. The
// racy kernels' Update — the 4-way-unrolled write-back every Step ends
// in — hoists one switch on the kind around three unrolled bodies, so
// the inner loop is branch-free straight-line code per regularizer.
// Everything else (clamped and delay-compensated write-backs, dense
// applies, unroll tails, and every CAS attempt) calls regAt(kind, w, η),
// an inlined three-way switch per element that predicts perfectly: the
// kind never changes under a kernel.
//
// Both precisions implement the whole per-sample surface, Ops[V]: Dot,
// DotClamped, Step, StepClamped, Update, UpdateClamped, UpdateDC. That
// is what lets core and stream write each worker loop once over the
// value type and run every feature — adaptive steps, staleness
// shedding, delay compensation, loss feedback — at either width. Kernel
// adds the three dense SVRG/SAGA operations, which stay float64-only.
//
// Reference is the executable specification: it speaks the model.Params
// and objective.Regularizer interfaces in exactly the seed's loop shape,
// and is never routed through the specialized types. Every f64
// specialization must be bitwise-identical to it for the same inputs
// (TestKernelEquivalence and the UpdateClamped/UpdateDC tables); every
// f32 one must track it within the kernel32_test.go tolerance.
//
// # Why not one generic kernel
//
// This package used to hold twelve hand-copied types,
// {racy,atomic}{,32} × {L1,L2,None}. Two Go-generics designs that look
// like the obvious way to collapse them were measured on a scratch copy
// when the merge was sized, and rejected; the numbers are here so nobody
// retries them blind.
//
//   - The regularizer as a zero-size policy type parameter
//     (racy[R reg], calling R.at(w) in the loop): 4× slower in the
//     unrolled update, 111 → 477 ns per row. A method call on
//     a type parameter goes through the GC-shape dictionary and is not
//     inlined, distinct shapes or not.
//   - One kernel over [F float32 | float64]: code that needs the L1
//     sign-transfer bit operation (Float32bits / Float64bits on F) was
//     2–3× slower for float32.
//
// Keeping four concrete types and folding only the regularizer into a
// field cost nothing: against the twelve-type code, medians of three
// alternating runs read 278 vs 287 ns for BenchmarkRacyL2StepF32, 247 vs
// 251 ns for BenchmarkKernelStepRacyL1 and 711 vs 701 ns for
// BenchmarkKernelStepAtomicL1 — all inside the run-to-run spread — with
// the equivalence suites passing unmodified and bitwise. Generics are
// used one level up, where they are free: the worker loops are generic
// over the value type only and call an ordinary Ops[V] interface value,
// which dispatches exactly as the concrete Kernel interface did.
//
// Scalar-step allocation is zero by construction; the minibatch path
// keeps per-worker Scratch buffers owned by the caller so steady-state
// epochs allocate nothing either (guarded by testing.AllocsPerRun).
package kernel
