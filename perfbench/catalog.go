package main

// metricDef names one reported metric and its unit. The order and the
// units here must match BENCHMARK.json (a test checks it); the bounds
// live only in BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator waits for and reads, printed
// by a --trace 0 run.
var endToEnd = []metricDef{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"slowdown_mean", "ratio"},
	{"slowdown_p99", "ratio"},
	{"slowdown_p99_short", "ratio"},
	{"goodput_frac", "frac"},
	{"flows_failed_frac", "frac"},
}

// perLayer is the traced run's split by layer, printed by a --trace 1
// run. See README.md for which end-to-end metric each should move.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.cpu_frac", "frac"},
	{"sim.epochs", "count"},
	{"sim.epoch_skipped_frac", "frac"},
	{"sim.barrier_inlined_frac", "frac"},
	{"sim.staged_per_epoch", "count"},
	{"netsim.packets_delivered", "count"},
	{"netsim.ctrl_frac", "frac"},
	{"netsim.cpu_frac", "frac"},
	{"netsim.drop_frac", "frac"},
	{"netsim.drops", "count"},
	{"netsim.trims", "count"},
	{"netsim.pfc_pauses", "count"},
	{"netsim.max_port_queue_kb", "KB"},
	{"core.on_packet_calls", "count"},
	{"core.on_packet_s", "s"},
	{"core.on_flow_arrival_s", "s"},
	{"core.cpu_frac", "frac"},
	{"core.tokens_issued", "count"},
	{"core.token_revert_frac", "frac"},
	{"core.unsched_byte_frac", "frac"},
	{"core.match.round0_accept_frac", "frac"},
	{"homa.on_packet_calls", "count"},
	{"homa.on_packet_s", "s"},
	{"homa.on_flow_arrival_s", "s"},
	{"homa.cpu_frac", "frac"},
	{"homa.grants", "count"},
	{"homa.unsched_byte_frac", "frac"},
	{"packet.cpu_frac", "frac"},
	{"workload.generate_s", "s"},
	{"workload.flows", "count"},
	{"topo.build_s", "s"},
	{"topo.partition_s", "s"},
	{"netsim.wire_s", "s"},
	{"protocols.attach_s", "s"},
	{"netsim.inject_s", "s"},
	{"stats.summarize_s", "s"},
	{"stats.records", "count"},
	{"stats.sub_unity_records", "count"},
	{"go.alloc_bytes_per_event", "B"},
	{"go.allocs_per_event", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"go.gc_cpu_frac", "frac"},
	{"bench.audit_cpu_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
}
