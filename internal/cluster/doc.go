// Package cluster distributes IS-ASGD across processes in the classic
// parameter-server star topology: one coordinator owns the authoritative
// dense weight vector behind an internal/snapshot.Store, and worker
// nodes train importance-sampled gradient rounds on their
// internal/balance-assigned shard of the corpus, exchanging state over
// stdlib net/http: weights and deltas as one binary frame (wire.go
// declares its headers; the codec is internal/frame, which snapshot
// replication shares), verdicts, stats and errors as small JSON bodies.
//
// The protocol is two endpoints:
//
//	GET  /v1/cluster/pull?since=SEQ&worker=ID&wire=f64|f32   long-poll the next model
//	POST /v1/cluster/push                                     submit a sparse update
//
// Pull blocks (bounded by the coordinator's poll window) until the store
// holds a version newer than the caller's seq, so workers ride the
// publish edge instead of busy-polling; the response omits the weight
// vector when nothing changed. Push carries the worker's accumulated
// sparse delta (index/value pairs of coordinates that moved during its
// local round) plus the seq of the version the round started from; a
// round that moved nothing still pushes its update count. The
// coordinator measures the push's realized staleness — its current seq
// minus the push's base seq, the cross-machine analogue of the SME delay
// parameter τ — through an internal/staleness.Recorder and sheds pushes
// beyond the configured bound with 409 instead of folding arbitrarily
// stale gradients into the model (the distributed counterpart of the
// perturbed-iterate analysis's bounded-delay assumption). Admitted
// deltas are validated finite before they touch the weights, applied
// under the writer lock, and republished through the snapshot store,
// which wakes every long-polling worker.
//
// Shard assignment needs no coordination traffic: every node loads the
// same corpus, computes the same deterministic importance-balanced plan
// (balance.Shards is a pure function of the Lipschitz weights, worker
// count, mode and seed), and takes the slice matching its worker id —
// Algorithm 4's balanced contiguous shards, stretched across machines.
//
// Everything observable is exported through internal/obs under the
// isasgd_cluster_* families: push outcomes (applied/shed/bad), realized
// push staleness quantiles, the published seq, cumulative updates, and
// the coordinator's evaluated loss. Worker RPCs retry transient
// failures with exponential backoff plus jitter under per-attempt
// timeouts; a worker that crashes mid-push, or is partitioned long
// enough to get shed, simply re-pulls the current version and rejoins
// the next round. A restarted coordinator re-seeds its store at the
// checkpointed sequence number via snapshot.Store.Restore, so surviving
// workers' "give me newer than seq" polls resume seamlessly.
package cluster
