// Package cluster distributes IS-ASGD across processes in the classic
// parameter-server star topology: one coordinator owns the authoritative
// dense weight vector behind an internal/snapshot.Store, and worker
// nodes train importance-sampled gradient rounds on their shard of a
// seeded shuffle of the corpus, exchanging state over
// stdlib net/http: deltas as a binary push frame (wire.go), weights as
// the version frame of internal/frame, verdicts, stats and errors as
// small JSON bodies.
//
// The protocol is two endpoints:
//
//	GET  /v1/cluster/pull?since=SEQ&worker=ID&workers=K&wire=f64|f32   long-poll the next model
//	POST /v1/cluster/push                                               submit a sparse update
//
// Pull is the coordinator's version feed, the one internal/frame serves
// for snapshot replication too: frame.Serve blocks (bounded by the
// coordinator's poll window, and woken when the run is done) until the
// store holds a version newer than the caller's seq, so workers ride the
// publish edge instead of busy-polling; the answer omits the weight
// vector when nothing changed, and its header carries the run's done
// flag and last loss. The worker polls with frame.Pull, whose cursor
// rule also catches a coordinator that restarted behind it.
//
// The run has K workers with IDs 0…K−1. Each worker declares K on every
// pull (workers=K), and the coordinator takes K from the first pull it
// admits, one whose ID lies inside its declared count. From then on a
// worker's first pull, at since=0, waits within the poll window until
// all K have pulled, so the star starts from version 1 together; the
// done-ack quorum an exit-on-done coordinator waits for is all K IDs;
// and a pull or push from an ID ≥ K, or a pull declaring another count,
// is refused with 400.
//
// Push carries the worker's accumulated sparse delta (index/value pairs
// of coordinates that moved during its local round) plus the seq of the
// version the round started from; a round that moved nothing still
// pushes its update count. The coordinator measures the push's realized
// staleness — its current seq minus the push's base seq, the
// cross-machine analogue of the SME delay parameter τ — under the same
// writer lock that applies it, and sheds pushes beyond the configured
// bound with 409 instead of folding arbitrarily stale gradients into the
// model (the distributed counterpart of the perturbed-iterate analysis's
// bounded-delay assumption). Admitted deltas are validated finite before
// they touch the weights, applied under the writer lock, and
// republished through the snapshot store, which wakes every
// long-polling worker.
//
// The push handler only publishes. The loss gate is one evaluator off
// the push path: a push starts it when EvalEvery pushes have been
// applied since the version it scored last and none is running; it
// scores the newest version on the hold-out, skips the versions it
// could not keep up with, ends the run on the target loss, and exits
// once it has caught up. A push's answer carries the newest recorded
// loss, not necessarily its own version's.
//
// Shard assignment needs no coordination traffic: every node loads the
// same corpus, draws the same seeded shuffle of its rows, and takes the
// contiguous slice matching its worker id — Algorithm 4's contiguous
// shards, stretched across machines.
//
// Everything observable is exported through internal/obs under the
// isasgd_cluster_* families: push outcomes (applied/shed/bad), realized
// push staleness quantiles, the published seq, cumulative updates, and
// the coordinator's evaluated loss. Worker RPCs retry transient
// failures with exponential backoff plus jitter (frame.Backoff) under
// per-attempt timeouts; a worker that crashes mid-push, or is partitioned long
// enough to get shed, simply re-pulls the current version and rejoins
// the next round. A restarted coordinator re-seeds its store at the
// checkpointed sequence number via snapshot.Store.Restore, so surviving
// workers' "give me newer than seq" polls resume seamlessly.
package cluster
