package main

// metricDef declares one metric: its name, unit, which direction is
// better and — end-to-end metrics only — the share of the parent's median
// by which it may worsen before a change counts as a regression.
// BENCHMARK.json repeats these lists; the smoke test holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Units name the clock: sim_ns is the latency model's clock and repeats
// bit-for-bit for a seed; s, ns, ops/s on a host_* metric and setup_s are
// this machine's.
const (
	unitSimNS = "sim_ns"
	unitNS    = "ns"
	unitCount = "count"
	unitRatio = "ratio"
)

// sameSeedSimBound is what -compare holds a simulated-clock metric to when
// both result files ran the same seed: the metric then repeats exactly, so
// any drift past rounding is a change of the model, not noise.
const sameSeedSimBound = 0.005

// endToEnd are the metrics a user of the system sees. The bounds of the
// sim_* metrics cover the spread between seeds (the inputs change with the
// seed); at equal seeds -compare applies sameSeedSimBound instead.
var endToEnd = []metricDef{
	{Name: "sim_throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "sim_busy_ns_per_op", Unit: unitSimNS, Better: "lower", Bound: 0.1},
	{Name: "sim_read_mean_ns", Unit: unitSimNS, Better: "lower", Bound: 0.15},
	{Name: "sim_recovery_mean_ns", Unit: unitSimNS, Better: "lower", Bound: 0.15},
	{Name: "host_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "host_allocs_per_op", Unit: unitCount, Better: "lower", Bound: 0.1},
	{Name: "host_live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the ledger of the traced rep, layer by layer.
var perLayer = []metricDef{
	// Client-visible sim-clock percentiles and their sample counts. They
	// are step functions of a few discrete primitive costs, so they sit
	// here, exact but unbounded, rather than among the end-to-end metrics.
	{Name: "sim_read_p99_ns", Unit: unitSimNS, Better: "lower"},
	{Name: "n_reads", Unit: unitCount, Better: "higher"},
	{Name: "sim_ack_p50_ns", Unit: unitSimNS, Better: "lower"},
	{Name: "sim_ack_p95_ns", Unit: unitSimNS, Better: "lower"},
	{Name: "n_acks", Unit: unitCount, Better: "higher"},

	{Name: "core.state_cells", Unit: unitCount, Better: "lower"},
	{Name: "core.tausteps_enabled", Unit: unitCount, Better: "lower"},
	{Name: "core.tausteps_host_ns", Unit: unitNS, Better: "lower"},
	{Name: "core.apply_host_ns", Unit: unitNS, Better: "lower"},
	{Name: "core.applytau_host_ns", Unit: unitNS, Better: "lower"},

	{Name: "memsim.prims_per_op", Unit: unitCount, Better: "lower"},
	{Name: "memsim.n_load", Unit: unitCount, Better: "lower"},
	{Name: "memsim.n_lstore", Unit: unitCount, Better: "lower"},
	{Name: "memsim.n_rstore", Unit: unitCount, Better: "lower"},
	{Name: "memsim.n_mstore", Unit: unitCount, Better: "lower"},
	{Name: "memsim.n_lflush", Unit: unitCount, Better: "lower"},
	{Name: "memsim.n_rflush", Unit: unitCount, Better: "lower"},
	{Name: "memsim.n_rflushrange", Unit: unitCount, Better: "lower"},
	{Name: "memsim.n_gpf", Unit: unitCount, Better: "lower"},
	{Name: "memsim.evictions", Unit: unitCount, Better: "lower"},
	{Name: "memsim.sim_ns_per_prim", Unit: unitSimNS, Better: "lower"},
	{Name: "memsim.prim_host_ns", Unit: unitNS, Better: "lower"},
	{Name: "memsim.evict_host_ns", Unit: unitNS, Better: "lower"},
	{Name: "memsim.est_host_share", Unit: unitRatio, Better: "lower"},

	{Name: "latency.cost_host_ns", Unit: unitNS, Better: "lower"},
	{Name: "latency.fig5_max_rel_err", Unit: unitRatio, Better: "lower"},

	{Name: "kv.acked_writes", Unit: unitCount, Better: "higher"},
	{Name: "kv.commits", Unit: unitCount, Better: "lower"},
	{Name: "kv.commit_flush_sim_ns_mean", Unit: unitSimNS, Better: "lower"},
	{Name: "kv.commit_queue_sim_ns_mean", Unit: unitSimNS, Better: "lower"},
	{Name: "kv.max_in_flight", Unit: unitCount, Better: "higher"},
	{Name: "kv.write_amp", Unit: unitRatio, Better: "lower"},
	{Name: "kv.flushes_per_acked_write", Unit: unitRatio, Better: "lower"},
	{Name: "kv.space_amp", Unit: unitRatio, Better: "lower"},
	{Name: "kv.log_fill_max", Unit: unitRatio, Better: "lower"},
	{Name: "kv.cache_hit_rate", Unit: unitRatio, Better: "higher"},
	{Name: "kv.cache_invalidations", Unit: unitCount, Better: "lower"},
	{Name: "kv.speculative_fills", Unit: unitCount, Better: "lower"},
	{Name: "kv.scanned_pairs_per_scan", Unit: unitCount, Better: "lower"},
	{Name: "kv.op_sim_ns_mean.get", Unit: unitSimNS, Better: "lower"},
	{Name: "kv.op_sim_ns_mean.put", Unit: unitSimNS, Better: "lower"},
	{Name: "kv.op_sim_ns_mean.scan", Unit: unitSimNS, Better: "lower"},
	{Name: "kv.compactions", Unit: unitCount, Better: "lower"},
	{Name: "kv.reclaimed_slots", Unit: unitCount, Better: "higher"},
	{Name: "kv.compaction_sim_ns_mean", Unit: unitSimNS, Better: "lower"},
	{Name: "kv.compaction_busy_share", Unit: unitRatio, Better: "lower"},
	{Name: "kv.recoveries", Unit: unitCount, Better: "lower"},
	{Name: "kv.recovery_sim_ns_max", Unit: unitSimNS, Better: "lower"},
	{Name: "kv.dropped_pending", Unit: unitCount, Better: "lower"},
	{Name: "kv.records_lost", Unit: unitCount, Better: "lower"},
	{Name: "kv.migrations", Unit: unitCount, Better: "lower"},
	{Name: "kv.migrated_records", Unit: unitCount, Better: "lower"},
	{Name: "kv.max_mean_busy", Unit: unitRatio, Better: "lower"},

	{Name: "pool.get_host_ns_p50", Unit: unitNS, Better: "lower"},
	{Name: "pool.get_host_ns_p99", Unit: unitNS, Better: "lower"},
	{Name: "pool.put_host_ns_p50", Unit: unitNS, Better: "lower"},
	{Name: "pool.put_host_ns_p99", Unit: unitNS, Better: "lower"},
	{Name: "pool.scan_host_ns_p50", Unit: unitNS, Better: "lower"},
	{Name: "pool.scan_host_ns_p99", Unit: unitNS, Better: "lower"},
	{Name: "pool.route_host_ns", Unit: unitNS, Better: "lower"},
	{Name: "pool.fanout_legs_per_scan", Unit: unitCount, Better: "lower"},
	{Name: "pool.scan_discarded_pairs", Unit: unitCount, Better: "lower"},
	{Name: "pool.scan_useful_ratio", Unit: unitRatio, Better: "higher"},
	{Name: "pool.fanout_makespan_over_serial", Unit: unitRatio, Better: "lower"},
	{Name: "pool.cluster_busy_skew", Unit: unitRatio, Better: "lower"},

	{Name: "workload.gen_host_ns", Unit: unitNS, Better: "lower"},
	{Name: "workload.driver_host_share", Unit: unitRatio, Better: "lower"},
	{Name: "workload.n_read", Unit: unitCount, Better: "higher"},
	{Name: "workload.n_update", Unit: unitCount, Better: "higher"},
	{Name: "workload.n_insert", Unit: unitCount, Better: "higher"},
	{Name: "workload.n_scan", Unit: unitCount, Better: "higher"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}
