package main

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions (metrics_test.go holds the two together); the bound
// lives only there.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what the untraced pass reports, on every workload. The
// driver gates each against its bound in BENCHMARK.json, and it needs
// every gated metric from every workload, so only quantities that both
// paths have are here:
//
//   - time_to_target_s: training, the clock until hold-out error reaches
//     the workload's target; serve_fleet, from PublishCopy on the origin
//     until the replica holds that version (the replica lag).
//   - throughput_per_s: training, updates applied per second of clock;
//     serve_fleet, correct predictions per second in the closed loop.
//
// Both are taken from the fastest execution seen of each piece of the run
// (see timeline), because the reference host's load is not the program's.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"time_to_target_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is what the traced pass reports. The first ten are end-to-end
// quantities that exist on one path only, so they cannot be gated on
// every workload and are reported here unbounded; the rest are the layer
// metrics. A metric of a layer the workload does not run reads 0.
var perLayer = []metricDef{
	{"updates_to_target", "count", "lower"},
	{"updates_per_s", "1/s", "higher"},
	{"final_err", "share", "lower"},
	{"is_update_gain", "ratio", "higher"},
	{"thread_speedup", "ratio", "higher"},
	{"predict_qps", "1/s", "higher"},
	{"predict_p50_ms", "ms", "lower"},
	{"predict_p99_ms", "ms", "lower"},
	{"slo_rate", "1/s", "higher"},
	{"replica_lag_ms", "ms", "lower"},

	{"core.construct_s", "s", "lower"},
	{"core.epoch_ns_per_update", "ns", "lower"},
	{"core.epoch_ns_per_update_t1", "ns", "lower"},
	{"core.uniform_ns_per_update", "ns", "lower"},
	{"core.is_overhead", "ratio", "lower"},
	{"core.loop_residual_ns", "ns", "lower"},
	{"core.alloc_b_per_epoch", "B", "lower"},

	{"kernel.step_ns", "ns", "lower"},
	{"kernel.dot_ns", "ns", "lower"},
	{"kernel.bytes_per_update", "B", "lower"},
	{"kernel.step_gbps", "GB/s", "higher"},
	{"kernel.step_clamped_ns", "ns", "lower"},

	{"sampling.alias_build_ns_per_row", "ns", "lower"},
	{"sampling.sequence_ns_per_draw", "ns", "lower"},
	{"sampling.uniform_ns_per_draw", "ns", "lower"},

	{"stream.reader_s", "s", "lower"},
	{"stream.reader_mb_per_s", "MB/s", "higher"},
	{"stream.reader_alloc_b_per_row", "B", "lower"},
	{"stream.ingest_s", "s", "lower"},
	{"stream.ingest_ns_per_update", "ns", "lower"},
	{"stream.isstate_observe_ns", "ns", "lower"},
	{"stream.isstate_rebuild_ns_per_entry", "ns", "lower"},
	{"stream.isstate_sample_ns", "ns", "lower"},
	{"stream.isstate_rebuilds", "count", "lower"},
	{"stream.residual_share", "share", "lower"},

	{"snapshot.publish_us", "us", "lower"},
	{"snapshot.publish_mb_per_s", "MB/s", "higher"},
	{"snapshot.load_ns", "ns", "lower"},
	{"snapshot.wait_wake_us", "us", "lower"},
	{"snapshot.publishes", "count", "lower"},

	{"wire32.encode_ns_per_elem", "ns", "lower"},
	{"wire32.decode_ns_per_elem", "ns", "lower"},

	{"cluster.push_count", "count", "lower"},
	{"cluster.push_shed_share", "share", "lower"},
	{"cluster.push_req_bytes", "B", "lower"},
	{"cluster.pull_resp_bytes", "B", "lower"},
	{"cluster.wire_bytes_per_update", "B", "lower"},
	{"cluster.push_handler_ms", "ms", "lower"},
	{"cluster.pull_handler_ms", "ms", "lower"},
	{"cluster.mean_tau", "count", "lower"},
	{"cluster.comm_share", "share", "lower"},

	{"serve.handler_us_p50", "us", "lower"},
	{"serve.client_overhead_us", "us", "lower"},
	{"serve.phase_decode_us", "us", "lower"},
	{"serve.phase_resolve_us", "us", "lower"},
	{"serve.phase_score_us", "us", "lower"},
	{"serve.phase_encode_us", "us", "lower"},
	{"serve.registry_predict_ns", "ns", "lower"},
	{"serve.resp_bytes", "B", "lower"},
	{"serve.replicate_resp_bytes", "B", "lower"},
	{"serve.replicate_pulls", "count", "lower"},

	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"loadgen.late_share", "share", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

func metricsOf(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// Constants of the workloads, calibrated once on the reference box (see
// README.md) and fixed since: a target that moved with the code under
// test would measure nothing.
const (
	// Hold-out error each training workload must reach. Each sits where
	// the IS run's curve is still steep enough for the crossing to be
	// steady and far enough above the final error that no rep misses it.
	targetSparse  = 0.18
	targetDense   = 0.29
	targetStream  = 0.23
	targetCluster = 0.31

	// serve_fleet's open-loop rates (requests per second) and the latency
	// limit slo_rate is judged by. The generator may hold no more
	// connections than cores, and at low load a request takes about 0.3 ms
	// on the reference box (idle cores wake slowly), so two connections
	// can offer about 6000/s at most; the rates are about 15, 30 and 45 %
	// of that, far below the closed loop's 16000/s.
	rate1, rate2, rate3 = 1000.0, 2000.0, 3000.0
	sloMs               = 50.0
)
