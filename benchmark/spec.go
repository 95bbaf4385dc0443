package main

// metric is one figure the benchmark reports. The tables below are the
// single source of the names, units and directions; BENCHMARK.json at the
// repository root repeats them and a test keeps the two in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of the simulator or the daemon sees.
// Every workload reports every one of them; how each applies to the
// simulator workloads and to the campaign workload is written in
// README.md.
var endToEnd = []metric{
	{Name: "refs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_peak_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "ipc_ratio_pct", Unit: "%", Better: "higher", Bound: 0.1},
	{Name: "campaign_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "first_record_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "resubmit_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the traced run's metrics. A layer a workload does not pass
// through reports 0 (for example service.dispatches on the simulator
// workloads).
var perLayer = []metric{
	{Name: "trace.materialize_s", Unit: "s", Better: "lower"},
	{Name: "trace.next_ns", Unit: "ns", Better: "lower"},
	{Name: "cpu.self_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "cpu.dep_load_frac", Unit: "ratio", Better: "lower"},
	{Name: "memsys.access_ns", Unit: "ns", Better: "lower"},
	{Name: "memsys.self_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "memsys.coverage", Unit: "ratio", Better: "higher"},
	{Name: "memsys.prefetch_useful", Unit: "count", Better: "higher"},
	{Name: "memsys.prefetch_unused", Unit: "count", Better: "lower"},
	{Name: "memsys.prefetch_accuracy", Unit: "ratio", Better: "higher"},
	{Name: "cache.l1.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.l2.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.llc.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.l2.prefetch_fills", Unit: "count", Better: "lower"},
	{Name: "cache.llc.prefetch_unused", Unit: "count", Better: "lower"},
	{Name: "dram.reads", Unit: "count", Better: "lower"},
	{Name: "dram.writes", Unit: "count", Better: "lower"},
	{Name: "dram.row_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dram.busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "dram.queue_cycles_per_req", Unit: "cycles", Better: "lower"},
	{Name: "prefetch.stride.train_ns", Unit: "ns", Better: "lower"},
	{Name: "prefetch.stride.train_calls", Unit: "count", Better: "lower"},
	{Name: "core.train_ns", Unit: "ns", Better: "lower"},
	{Name: "core.train_calls", Unit: "count", Better: "lower"},
	{Name: "core.requests_per_train", Unit: "req/call", Better: "lower"},
	{Name: "spp.train_ns", Unit: "ns", Better: "lower"},
	{Name: "spp.train_calls", Unit: "count", Better: "lower"},
	{Name: "spp.requests_per_train", Unit: "req/call", Better: "lower"},
	{Name: "runtime.allocs_per_ref", Unit: "allocs/ref", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.sims", Unit: "count", Better: "lower"},
	{Name: "experiments.memo_hits", Unit: "count", Better: "higher"},
	{Name: "experiments.disk_hits", Unit: "count", Better: "higher"},
	{Name: "experiments.store_get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "experiments.store_get_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "experiments.store_put_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "experiments.store_put_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "service.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stream_ttfb_ms", Unit: "ms", Better: "lower"},
	{Name: "service.handler_busy_s", Unit: "s", Better: "lower"},
	{Name: "service.dispatch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.dispatch_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "service.dispatches", Unit: "count", Better: "lower"},
	{Name: "service.redispatches", Unit: "count", Better: "lower"},
	{Name: "service.worker_busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "sweep.records", Unit: "count", Better: "lower"},
	{Name: "sweep.record_bytes", Unit: "bytes", Better: "lower"},
	{Name: "sweep.durable_resubmit_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.unattributed_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "sim.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// workload is one named input set. Why says which layers it stresses and
// which it bypasses, so a later change can name the workload that should
// move and the one that should not.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(c runConfig) (*report, error)
}

var workloads = []workload{
	{
		Name: "sim-spatial",
		Why:  "1-core tpcc/linpack/parsec-stream x {none,spp,dspatch,dspatch+spp}: stresses the prefetch-queue drain, Train and DRAM bandwidth; bypasses service, store and journal",
		run:  runSpatial,
	},
	{
		Name: "sim-irregular-mp",
		Why:  "4-core Irregular+mcf mixes x {none,dspatch+spp}: stresses dependent loads, shared LLC/DRAM and lane scheduling; few prefetches issue, so a drain change should not move it",
		run:  runIrregularMP,
	},
	{
		Name: "campaign-daemon",
		Why:  "32-point grid campaign on one daemon (pack store + journal) over loopback: stresses service, store and journal fsync; bypasses fleet dispatch, which only its traced run measures",
		run:  runCampaignDaemon,
	},
}
