// Package obs is the unified, stdlib-only observability layer: one
// central metrics registry with a single Prometheus-text exposition
// path, structured logging and request tracing helpers around log/slog,
// training-loop instrumentation (update-staleness probes, importance-
// sampling diagnostics, throughput), Go runtime gauges, and the
// pprof/execution-trace debug endpoints behind isasgd-serve's
// -debug-addr flag.
//
// Design constraints, in order:
//
//   - The predict and update hot paths must stay allocation-free and
//     within a few atomic operations. Instruments are therefore
//     pre-registered: a vec lookup (map + mutex) happens once at
//     binding time, and the value handed back (*Counter, *Gauge,
//     *Histogram) is a plain atomic cell the hot path touches directly
//     — no map lookups, no fmt, no interface dispatch per event.
//   - Exposition is correct for scrapers: every family carries # HELP
//     and # TYPE lines, label values are escaped, families and series
//     are emitted in deterministic sorted order, and the Content-Type
//     advertises text format 0.0.4. obstest.Lint parses an exposition
//     and is the tests' scrape-cleanliness gate.
//   - Latency families reuse internal/metrics.Histogram (fixed
//     log2-bucket, atomic, mergeable) so per-model histograms merge
//     exactly across replicas; obs adds only unit scaling (raw int64
//     observations × scale at exposition time, e.g. 1e-9 for _seconds
//     families) and the summary rendering.
//
// Scrape-time families (Collect) cover values that are cheaper to read
// on demand than to maintain eagerly: jobs by state, per-model snapshot
// sequence numbers, runtime gauges. Everything on a hot path is an
// eager atomic instrument.
package obs
