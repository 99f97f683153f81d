// Package isasgd is a Go implementation of IS-ASGD — asynchronous
// stochastic gradient descent accelerated by importance sampling — after
// Wang, Li, Ye and Chen, "IS-ASGD: Accelerating Asynchronous SGD using
// Importance Sampling" (ICPP 2018, arXiv:1706.08210).
//
// # Background
//
// Lock-free asynchronous SGD (Hogwild) is the de-facto solver for
// large-scale sparse empirical risk minimization. Variance-reduction
// techniques accelerate SGD's convergence per iteration, but the popular
// SVRG family, in the strict form the paper describes, needs the dense
// true gradient µ at every update, turning an O(nnz) sparse update into
// an O(d) dense one — a 10³–10⁷× blowup on high-dimensional sparse
// data, and more conflict between lock-free writers. This package's
// SVRG is the sparse form of the later literature (KroMagnon, ASAGA),
// which applies µ_j·n/n_j on each row's support only and costs O(nnz). Importance sampling (IS) achieves variance reduction with no
// online overhead at all: sample training points proportionally to their
// gradient Lipschitz constants L_i, scale steps by 1/(n·p_i), and keep
// the computation kernel identical to plain ASGD.
//
// IS-ASGD shards data across workers, so each worker's sampling
// distribution is computed on its local shard, and unequal per-shard
// importance sums Φ_a distort it from the global optimum. The paper
// equalizes them with a head–tail interleave of samples sorted by L_i,
// applied when the imbalance potential ρ = Var(L) exceeds a threshold
// ζ. Batch, cluster and streaming training cut shards from a seeded
// shuffle instead: measured on every corpus here, its Φ_a are at least
// as close to equal. The head–tail rule runs only in the paper's
// reproduction.
//
// # Quick start
//
//	ds, err := isasgd.Synthesize(isasgd.SmallConfig(1))
//	if err != nil { ... }
//	obj := isasgd.LogisticL1(1e-4)
//	res, err := isasgd.Train(context.Background(), ds, obj, isasgd.Config{
//		Algo:    isasgd.ISASGD,
//		Epochs:  15,
//		Step:    0.5,
//		Threads: 8,
//	})
//	if err != nil { ... }
//	fmt.Println(res.Curve.Final())
//
// # What is in the box
//
// Six algorithms behind one Train call (SGD, IS-SGD, ASGD, IS-ASGD,
// SVRG-SGD, SVRG-ASGD), each an engine construction of internal/core run
// by its one update loop, three generalized-linear objectives
// (L1-regularized logistic, L2 squared-hinge SVM, ridge regression),
// LibSVM I/O, synthetic dataset generators reproducing the scale
// signatures of the paper's four evaluation datasets, conflict-graph
// analysis with the paper's convergence bounds, and an experiment
// harness (cmd/isasgd-bench) that regenerates the paper's tables and
// figures, printing each beside the paper's own numbers. The harness
// trains on a deterministic delayed executor, so its report counts
// updates and repeats byte for byte at a seed: Figure 1 is a count of
// touched coordinates, Figure 5 counts updates to each error level, and
// absolute time is measured only by bench/ (setup_s, core.is_overhead),
// so the wall-clock Figure 4 has no counterpart. SVRG runs on the
// shared update loop, but the SVRG-ASGD arm of the News20 panel is not
// back in the report yet (ROADMAP item 7). See internal/README.md for
// the system inventory.
//
// # One training spec
//
// Every front end that starts a run — a serve job spec, the
// isasgd-train flags, the isasgd-cluster flags — fills one
// internal/spec.Spec. Its knob table declares each knob once: JSON name
// (the flag name swaps '_' for '-'), the run kinds it applies to, and
// each surface's default. One validator rejects unknown names,
// non-finite or out-of-range numbers, and, through one capability table
// (algo × kind × feature), combinations the engines do not
// run, before any training starts. Training reports its evaluation
// split into the mean data loss the sparse kernels minimize and the
// η·r(w) penalty (metrics.Eval.Loss, Reg), and a cluster's target-loss
// gate reads the loss.
//
// # Serving
//
// Beyond the batch CLIs, cmd/isasgd-serve runs the library as a
// long-lived HTTP service (internal/serve): training jobs are submitted
// as JSON (a synthetic preset or an uploaded LibSVM payload plus solver
// configuration), execute asynchronously on a bounded worker pool with
// context cancellation, and report their convergence curves
// incrementally through Config.Progress while they run. Jobs publish
// their weights into a lock-free, copy-on-write model registry that
// serves single and batched sparse-vector predictions — live while they
// train (see Serving performance below), final at completion — with
// checkpoint import/export and crash-safe persistence: on SIGINT/SIGTERM
// in-flight jobs are cancelled between epochs and their partial progress
// checkpointed, and a restarted server restores every persisted model.
// A checkpoint file is one version frame, the encoding replication and
// the cluster use on the wire, between a magic and a CRC-32C, with the
// weights at the model's width; files of the earlier gob and JSON
// formats are refused with an error that names them.
// See README.md for a curl quickstart and examples/serving for the same
// conversation as a Go client.
//
// # Streaming
//
// The paper's recipe is offline — Lipschitz constants, the alias
// distribution and the sample sequences are precomputed over a resident
// dataset. internal/stream provides the online counterpart for corpora
// that arrive as a stream or exceed memory: a chunked LibSVM reader
// yields fixed-size row blocks, blocks slide through a bounded window,
// each block is cut into worker shards of a seeded shuffle, and
// sampling stays O(1) via alias tables rebuilt from a bounded reservoir
// of observed Lipschitz estimates. The window is one CSR arena, and each
// worker turns its block's draws into a plan that the batch engine's
// update loop (core.Loop) runs, so batch and stream training share one
// loop.
// Trainer.Run is a two-stage pipeline: one
// goroutine parses up to two blocks ahead (a constant — the slower stage
// sets the pace at any depth) while the caller's trains and publishes,
// with block, error and OnBlock/publish order exactly those of taking
// turns; each published version is cut range by range on the workers
// with the finiteness check fused into the copy. isasgd-train -stream
// drives it from the CLI, and the service accepts kind "stream" jobs
// (server-side file path) as well as POST /v1/jobs/stream uploads
// trained while the payload is in flight. See README.md's streaming
// section and examples/streaming.
//
// # Performance and precision
//
// Every algorithm's update runs on internal/kernel: one monomorphic,
// allocation-free update kernel per weight storage (racy or atomic, at
// float64 or — behind Config.Precision "f32" — float32), each proven
// against a generic reference kernel that remains the executable
// specification. internal/README.md describes the design, the
// equivalence and tolerance contracts and the measurements once; the
// internal/kernel package doc records why the kernels are four concrete
// types rather than one generic one.
//
// Performance is measured by one benchmark, `bash bench/run.sh`: five
// seeded end-to-end workloads covering both paths (LibSVM bytes to
// target loss, published version to prediction) with per-layer
// breakdowns. bench/README.md describes it.
//
// # Serving performance
//
// The serving read path mirrors the training hot path's discipline.
// Model weights are published as immutable, sequence-numbered versions
// through internal/snapshot — a single-writer/many-reader store whose
// read side is one atomic pointer load — and the model registry's name
// map is copy-on-write behind another atomic pointer, so a predict
// request takes no lock anywhere: map load, version load, validate,
// score. Responses are pooled, making the steady-state predict path
// allocation-free (testing.AllocsPerRun-guarded). The same pipeline
// enables publish-while-training: core.Engine, stream.Trainer and
// core.Train cut mid-training snapshot versions at a configurable
// cadence (isasgd-serve -publish-every), the job manager registers the
// model as live at the first progress tick, and predictions answer with
// the seq/epoch they were scored against — hot-advancing until the job
// completes, rolled back if it is cancelled. The paper's
// snapshot-tolerance argument (perturbed-iterate analysis) is what makes
// serving an inconsistent mid-training cut sound.
//
// # Observability
//
// internal/obs is the unified, stdlib-only telemetry layer. A central
// metrics registry exports one Prometheus text-format scrape
// (GET /metrics) covering serving (per-model predict-latency
// p50/p95/p99, request/prediction counters, QPS), HTTP (request
// counts/latency/in-flight), training (per-worker update-staleness
// summaries — the measured analog of the τ in the paper's Section-3
// bounds — plus epoch/block throughput), importance sampling (streamed
// effective sample size, ψ̂, reservoir occupancy, alias rebuild
// count and latency) and the Go runtime. Instruments are pre-resolved
// atomic cells, so the zero-allocation predict path stays
// zero-allocation while instrumented. Structured logs (log/slog) trace
// every request by X-Request-ID — propagated or minted by middleware,
// echoed on responses, stamped into the owning job's status and every
// lifecycle log line from submission to snapshot publication.
// Profiling (/debug/pprof, on-demand /debug/trace) is opt-in behind
// isasgd-serve -debug-addr on a separate listener. See README.md's
// Observability section.
//
// # Distributed training
//
// internal/cluster and cmd/isasgd-cluster stretch the engine across
// processes in a parameter-server star: the coordinator owns the global
// model behind the same versioned snapshot store serving reads, workers
// long-poll fresh versions, train importance-sampled rounds on
// deterministic shards (every node draws the same seeded shuffle — no
// assignment traffic), and push
// sparse accumulated updates back over stdlib HTTP: deltas as a binary
// push frame (internal/cluster/wire.go), weights as the version frame
// of internal/frame, whose one long-poll handler and client step also
// carry snapshot replication. Each push's realized
// staleness — coordinator seq minus the seq it trained from, the
// cross-machine analog of the paper's delay parameter τ — is measured,
// exported (isasgd_cluster_* families), and bounded: pushes beyond the
// configured staleness bound are shed and the worker resyncs, the
// distributed counterpart of the bounded-delay assumption behind the
// perturbed-iterate analysis. Pushes only publish: the target-loss gate
// is one evaluator that scores the newest version off the push path.
// See README.md's Cluster quickstart.
//
// # Adaptive updates
//
// internal/adaptive makes the sampling distribution and the delay
// handling respond to live training signals instead of being fixed up
// front. Gradient-norm importance (Config.Importance and
// stream.Config.Importance "grad", isasgd-train -stream -importance
// grad, the streaming job spec's "importance" field) is one signal for
// both trainers: every update the loop applies stores its row's |ℓ'(z)|,
// and at each epoch (batch) or block (stream) boundary the alias tables
// are rebuilt from the Eq.-11 weights |ℓ'(z_i)|·‖x_i‖, mixed with
// uniform so the 1/(n·p) correction stays at most 2 — rows the model
// still gets wrong keep their sampling mass, mastered rows lose it, and
// no extra pass over the data is made (the norm Katharopoulos & Fleuret
// and Alain et al. reduce to for linear models). The in-process
// trainers apply every update at full step, as Algorithm 4 does:
// attenuating or shedding stale single updates did not pay on the
// referee (README), so -adapt-c and -staleness-bound are the cluster
// coordinator's alone. And the cluster
// coordinator can apply DC-ASGD delay compensation (-dc-lambda): each
// delayed push's delta is corrected per coordinate by −λ·d²·(w_now −
// w_base) against the exact retained base version it trained from,
// recovering most of the convergence a hot asynchronous star loses to
// delay.
//
// # Serving fleet
//
// The same snapshot pipeline scales the read side out: isasgd-serve
// -origin runs a read-only replica that mirrors every model of an
// origin server through GET /v1/replicate — the same version feed the
// cluster's pulls follow (internal/frame: one long-poll handler on the
// origin's snapshot store, one client step, one frame of raw
// little-endian weights, 4 bytes each for float32 models), so a new
// version propagates the moment it
// publishes and replicas report their measured staleness (isasgd_replica_lag_seconds, and a
// lag_seconds field on /v1/models). Every predict takes one path: the
// handler decodes the body and the registry scores it against one
// resolved version, allocation-free in the steady state. The
// benchmark's serve_fleet workload loads an origin and a replica with
// closed and open loops (open-loop latency is measured from scheduled
// arrival, so client-side queueing is charged to the percentiles). See
// README.md's Serving fleet quickstart.
package isasgd
