package obs

import (
	"strconv"
	"sync"
	"time"
)

// TrainInstruments bundles the per-job training telemetry: throughput
// counters and gauges, importance-sampling diagnostics, and the
// per-worker update-staleness probe. One value is created per training
// job (labeled by model); creation is the cold path — every field is a
// pre-bound atomic instrument the training loops touch directly.
//
// The staleness histograms hold the perturbed-iterate τ of the SME
// analysis (An/Lu/Ying; Mania et al. 2017) as an observable: the
// trainers' logical update clock (adaptive.Clock) ticks once per applied
// update, and each update records how many other-worker ticks elapsed
// between its gradient read and its write. Single-worker runs therefore
// observe exactly 0; Hogwild runs observe the machine's realized delay
// distribution, per worker.
type TrainInstruments struct {
	model string

	staleVec *SummaryVec
	staleMu  sync.Mutex
	stale    []*Histogram // per-worker series, materialized on demand

	RowsTotal     *Counter
	UpdatesTotal  *Counter
	UpdatesShed   *Counter // updates dropped by a staleness bound
	RowsPerSec    *Gauge
	UpdatesPerSec *Gauge

	SnapshotRejected *Counter // publishes rejected for non-finite weights

	ESS           *Gauge // importance-sampling effective sample size
	Rho           *Gauge // streamed ρ̂ (Eq. 20 imbalance potential)
	Psi           *Gauge // streamed ψ̂ (Eq. 15 improvement indicator)
	Reservoir     *Gauge // reservoir entries across workers
	AliasRebuilds *Counter
	AliasRebuild  *Histogram // rebuild latency summary (seconds)
}

// NewTrainInstruments registers (or re-binds, for a reused model name)
// the training families for one job. Same model name → same underlying
// series, so counters survive retrains under a stable name.
func NewTrainInstruments(r *Registry, model string) *TrainInstruments {
	ti := &TrainInstruments{model: model}
	ti.staleVec = r.SummaryVec("isasgd_train_staleness_updates",
		"Per-worker update staleness: asynchronous updates applied by other workers between an update's gradient read and its write (the SME delay parameter tau).",
		1, "model", "worker")
	ti.RowsTotal = r.CounterVec("isasgd_train_rows_total",
		"Training rows consumed per model.", "model").With(model)
	ti.UpdatesTotal = r.CounterVec("isasgd_train_updates_total",
		"SGD updates applied per model.", "model").With(model)
	ti.UpdatesShed = r.CounterVec("isasgd_train_updates_shed_total",
		"SGD updates dropped because their measured staleness exceeded the configured bound.", "model").With(model)
	ti.RowsPerSec = r.GaugeVec("isasgd_train_rows_per_sec",
		"Training-loop row throughput over the last epoch/block.", "model").With(model)
	ti.UpdatesPerSec = r.GaugeVec("isasgd_train_updates_per_sec",
		"Training-loop update throughput over the last epoch/block.", "model").With(model)
	ti.SnapshotRejected = r.CounterVec("isasgd_snapshot_rejected_total",
		"Live weight-snapshot publishes rejected for non-finite weights; a non-zero rate means serving has stopped advancing while the job keeps training.", "model").With(model)
	ti.ESS = r.GaugeVec("isasgd_is_effective_sample_size",
		"Importance-sampling effective sample size (sum w)^2/(sum w^2) of the observed weight stream.", "model").With(model)
	ti.Rho = r.GaugeVec("isasgd_is_rho",
		"Streaming estimate of the paper's imbalance potential rho (Eq. 20).", "model").With(model)
	ti.Psi = r.GaugeVec("isasgd_is_psi",
		"Streaming estimate of the convergence-improvement indicator psi (Eq. 15, normalized).", "model").With(model)
	ti.Reservoir = r.GaugeVec("isasgd_is_reservoir_entries",
		"Importance-sampling reservoir occupancy summed across workers.", "model").With(model)
	ti.AliasRebuilds = r.CounterVec("isasgd_is_alias_rebuilds_total",
		"Alias-table rebuilds performed.", "model").With(model)
	ti.AliasRebuild = r.SummaryVec("isasgd_is_alias_rebuild_seconds",
		"Alias-table rebuild latency quantiles.", 1e-9, "model").With(model)
	return ti
}

// WorkerStaleness returns the first n per-worker staleness histograms,
// materializing series as worker counts grow. The returned slice is
// indexed by worker id and must not be mutated.
func (ti *TrainInstruments) WorkerStaleness(n int) []*Histogram {
	ti.staleMu.Lock()
	defer ti.staleMu.Unlock()
	for len(ti.stale) < n {
		ti.stale = append(ti.stale,
			ti.staleVec.With(ti.model, strconv.Itoa(len(ti.stale))))
	}
	return ti.stale[:n]
}

// EpochDone records one completed epoch: updates applied and the wall
// time the epoch took (evaluation excluded).
func (ti *TrainInstruments) EpochDone(updates int64, d time.Duration) {
	if ti == nil {
		return
	}
	ti.UpdatesTotal.Add(updates)
	if s := d.Seconds(); s > 0 {
		ti.UpdatesPerSec.Set(float64(updates) / s)
	}
}

// BlockDone records one trained streaming block: rows ingested, updates
// applied and the update-phase wall time.
func (ti *TrainInstruments) BlockDone(rows int, updates int64, d time.Duration) {
	if ti == nil {
		return
	}
	ti.RowsTotal.Add(int64(rows))
	ti.UpdatesTotal.Add(updates)
	if s := d.Seconds(); s > 0 {
		ti.RowsPerSec.Set(float64(rows) / s)
		ti.UpdatesPerSec.Set(float64(updates) / s)
	}
}

// ShedDone records n updates dropped under a staleness bound.
func (ti *TrainInstruments) ShedDone(n int64) {
	if ti == nil || n <= 0 {
		return
	}
	ti.UpdatesShed.Add(n)
}

// SetISStats refreshes the importance-sampling diagnostic gauges.
func (ti *TrainInstruments) SetISStats(ess, rho, psi float64, reservoir int) {
	if ti == nil {
		return
	}
	ti.ESS.Set(ess)
	ti.Rho.Set(rho)
	ti.Psi.Set(psi)
	ti.Reservoir.Set(float64(reservoir))
}

// RebuildObserved records one alias-table rebuild of duration d. Safe
// for concurrent use (rebuilds can fire from multiple ingest paths).
func (ti *TrainInstruments) RebuildObserved(d time.Duration) {
	if ti == nil {
		return
	}
	ti.AliasRebuilds.Inc()
	ti.AliasRebuild.ObserveDuration(d)
}
