package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/isasgd/isasgd/internal/adaptive"
	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/core"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/spec"
	"github.com/isasgd/isasgd/internal/xrand"
)

// WorkerConfig configures one worker node of the star.
type WorkerConfig struct {
	ID      int // this node's shard index, 0-based
	Workers int // total worker count — every node must agree
	// Coordinator is the server root, e.g. "http://127.0.0.1:9090".
	Coordinator string

	// Data is the full corpus; every node loads the same corpus and the
	// same Seed, so the seeded shuffle cuts the same shards everywhere
	// and shard assignment needs no RPC.
	Data *dataset.Dataset
	Obj  objective.Objective
	Seed uint64

	// Threads is the local Hogwild width; LocalEpochs the shard passes
	// per push round; Step the SGD step size.
	Threads     int
	LocalEpochs int
	Step        float64
	// StepDecay multiplies the step after each push round; (0, 1], with
	// 0 meaning 1 (no decay). Constant-step rounds oscillate around the
	// optimum once the star converges — each push lands a whole
	// shard-epoch displacement — so long races want a mild decay.
	StepDecay float64

	// Wire selects the width of the values inside the pull and push
	// frames (see wire.go): WireF64 (or "", the default) ships exact
	// float64 bits; WireF32 ships float32, half the value bytes, at a
	// ~1e-7 relative narrowing of pulled weights and pushed deltas.
	Wire string

	// PollTimeout is the client-side ceiling on one pull long-poll; it
	// should exceed the coordinator's window (default 30s).
	PollTimeout time.Duration
	Retry       RetryPolicy
	HTTPClient  *http.Client
	Log         *slog.Logger
}

// WorkerStats counts one worker's protocol activity.
type WorkerStats struct {
	Rounds  int64 // local training rounds completed
	Applied int64 // pushes the coordinator folded in
	Shed    int64 // pushes shed for staleness
	Retries int64 // RPC attempts beyond the first
	Updates int64 // local SGD updates computed
}

// Worker trains IS-ASGD rounds on its shard of a seeded shuffle and
// exchanges model state with the coordinator. Create with NewWorker,
// drive with Run.
type Worker struct {
	cfg  WorkerConfig
	rpc  *rpcClient
	eng  *core.Engine
	dim  int
	wire string // normalized WireF64 or WireF32

	rounds, appliedN, shed, retries, updates atomic.Int64
}

// WorkerFromSpec compiles a validated cluster spec into the training
// half of a WorkerConfig over the shared corpus; the caller adds the
// node's identity, coordinator URL, wire width and transport. It
// validates nothing: spec.Spec.Validate has.
func WorkerFromSpec(s spec.Spec, data *dataset.Dataset) WorkerConfig {
	obj, _ := objective.Parse(s.Objective, s.Eta)
	return WorkerConfig{
		Data: data, Obj: obj, Seed: s.Seed,
		Threads: s.Threads, Step: s.Step, StepDecay: s.StepDecay,
	}
}

// NewWorker computes the node's shard (deterministically, no
// coordination) and builds its local importance-sampling engine.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("cluster: worker count %d < 1", cfg.Workers)
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Workers {
		return nil, fmt.Errorf("cluster: worker id %d outside [0,%d)", cfg.ID, cfg.Workers)
	}
	if cfg.Data == nil || cfg.Obj == nil {
		return nil, fmt.Errorf("cluster: worker needs Data and Obj")
	}
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("cluster: worker needs a coordinator URL")
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.LocalEpochs < 1 {
		cfg.LocalEpochs = 1
	}
	if err := adaptive.CheckStep(cfg.Step); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if err := adaptive.CheckDecay(cfg.StepDecay); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.StepDecay == 0 {
		cfg.StepDecay = 1
	}
	if cfg.PollTimeout <= 0 {
		cfg.PollTimeout = 30 * time.Second
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	wire, err := parseWire(cfg.Wire)
	if err != nil {
		return nil, err
	}

	shard := balance.Split(xrand.New(cfg.Seed).Perm(cfg.Data.N()), cfg.Workers)[cfg.ID]
	if len(shard) == 0 {
		return nil, fmt.Errorf("cluster: shard %d is empty (%d rows across %d workers)",
			cfg.ID, cfg.Data.N(), cfg.Workers)
	}
	local := cfg.Data.Reorder(shard)
	// The local engine importance-samples within the shard (Algorithm 4's
	// per-worker alias sampling) and shuffles it again for its own
	// threads. Its model is core's: a plain slice on one thread, CAS
	// cells on more.
	kind := model.KindAtomic
	if cfg.Threads == 1 {
		kind = model.KindRacy
	}
	eng, err := core.NewISASGDOpts(local, cfg.Obj, model.New(kind, cfg.Data.Dim()), cfg.Threads,
		core.ISOptions{Seed: cfg.Seed ^ (uint64(cfg.ID+1) * 0x9e3779b97f4a7c15)})
	if err != nil {
		return nil, err
	}
	w := &Worker{
		cfg:  cfg,
		eng:  eng,
		dim:  cfg.Data.Dim(),
		wire: wire,
		rpc: &rpcClient{
			hc:     cfg.HTTPClient,
			base:   cfg.Coordinator,
			policy: cfg.Retry.withDefaults(),
			rng:    xrand.New(cfg.Seed ^ uint64(cfg.ID)<<32 ^ 0xc1a57e2),
			log:    cfg.Log,
		},
	}
	return w, nil
}

// ShardRows returns the local shard size.
func (w *Worker) ShardRows() int { return int(w.eng.ItersPerEpoch()) }

// Stats snapshots the worker's counters (safe concurrently with Run).
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Rounds:  w.rounds.Load(),
		Applied: w.appliedN.Load(),
		Shed:    w.shed.Load(),
		Retries: w.retries.Load(),
		Updates: w.updates.Load(),
	}
}

// Run executes pull → local IS-ASGD round → push until the coordinator
// reports Done, ctx is cancelled, or an RPC fails terminally (retries
// exhausted). A shed push discards the local round and resynchronizes
// on the next pull.
func (w *Worker) Run(ctx context.Context) error {
	// prev is the pulled version: frames decode straight into it, and the
	// round's delta is taken against it.
	prev := make([]float64, w.dim)
	var cur []float64
	req := PushRequest{Worker: w.cfg.ID, Wire: w.wire}
	var frame []byte // push scratch
	var since uint64
	step := w.cfg.Step
	log := w.cfg.Log
	query := fmt.Sprintf("worker=%d&workers=%d&wire=%s", w.cfg.ID, w.cfg.Workers, w.wire)

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		a, attempts, err := w.rpc.pull(ctx, query, since, w.cfg.PollTimeout+5*time.Second, prev)
		w.retries.Add(int64(attempts - 1))
		if err != nil {
			return fmt.Errorf("cluster: worker %d pull: %w", w.cfg.ID, err)
		}
		since = a.Next
		if a.Done {
			log.Info("coordinator reports done", "worker", w.cfg.ID, "seq", a.Seq, "loss", a.Loss)
			return nil
		}
		if a.Weights == nil {
			continue // poll window expired with nothing new, or the cursor rewound
		}
		w.eng.Load(prev)

		var roundUpdates int64
		for e := 0; e < w.cfg.LocalEpochs; e++ {
			roundUpdates += w.eng.RunEpoch(step)
		}
		step *= w.cfg.StepDecay
		w.rounds.Add(1)
		w.updates.Add(roundUpdates)
		cur = w.eng.Snapshot(cur)
		// A round that moved nothing still pushes: its updates count, and
		// the version the push publishes is what the next pull waits for.
		req.Seq, req.Updates = since, roundUpdates
		req.Idx, req.Val = sparseDiff(prev, cur, req.Idx, req.Val)
		frame = appendPush(frame[:0], &req)
		status, resp, attempts, err := w.rpc.push(ctx, frame)
		w.retries.Add(int64(attempts - 1))
		if err != nil {
			return fmt.Errorf("cluster: worker %d push: %w", w.cfg.ID, err)
		}
		switch {
		case status == http.StatusConflict:
			// Shed for staleness: drop the round, resync at current seq.
			w.shed.Add(1)
			log.Info("push shed, resyncing", "worker", w.cfg.ID,
				"tau", resp.Staleness, "seq", resp.Seq)
			if resp.Seq < since {
				// The coordinator restarted behind our seq (no -state
				// checkpoint): drop to a full re-pull so the next poll
				// returns the current version instead of waiting for a
				// seq the coordinator may not reach for a long time.
				since = 0
			}
		case resp.Applied:
			w.appliedN.Add(1)
		default:
			return fmt.Errorf("cluster: worker %d push not applied (status %d)", w.cfg.ID, status)
		}
		if resp.Done {
			log.Info("coordinator reports done", "worker", w.cfg.ID, "seq", resp.Seq, "loss", resp.Loss)
			return nil
		}
	}
}
