package main

// metric names one reported number. The two tables below are the
// benchmark's public surface: BENCHMARK.json at the repository root
// lists the same names, units and directions (a test compares them),
// and later changes state their claims in these names.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees; every workload reports
// all six in an untraced run. README.md defines each.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"solve_s", "s", "lower"},
	{"msgs_per_doc", "count/doc", "lower"},
	{"wire_bytes_per_doc", "B/doc", "lower"},
	{"rank_err_p99", "ratio", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is what a traced run reports, one layer (package under
// internal/) per prefix. A metric whose layer the workload does not
// exercise reads 0 there.
var perLayer = []metric{
	{"graph.gen_s", "s", "lower"},
	{"graph.outlinks_ns_per_edge", "ns/edge", "lower"},

	{"csr.encode_s", "s", "lower"},
	{"csr.outlinks_ns_per_edge", "ns/edge", "lower"},
	{"csr.bytes_per_edge", "B/edge", "lower"},

	{"solver.power_s", "s", "lower"},
	{"solver.power_iters", "count", "lower"},

	{"p2p.assign_s", "s", "lower"},
	{"p2p.retry_defermerge_ns_per_update", "ns/update", "lower"},
	{"p2p.retry_drain_ns_per_update", "ns/update", "lower"},
	{"p2p.retry_merge_ratio", "ratio", "higher"},

	{"dht.ring_build_s", "s", "lower"},
	{"dht.placekey_ns_per_key", "ns/key", "lower"},
	{"dht.lookup_hops_mean", "hops", "lower"},

	{"core.slowdown_x", "x", "lower"},
	{"core.pass_count", "count", "lower"},
	{"core.pass_ms_p50", "ms", "lower"},
	{"core.pass_ms_max", "ms", "lower"},
	{"core.updates_per_s", "1/s", "higher"},
	{"core.inter_peer_msgs", "count", "lower"},
	{"core.intra_peer_msgs", "count", "lower"},
	{"core.allocs_per_pass", "count", "lower"},
	{"core.parallel_speedup_x", "x", "higher"},

	{"chaotic.solve_s", "s", "lower"},
	{"chaotic.folds", "count", "lower"},

	{"engine.diffusion_solve_s", "s", "lower"},
	{"engine.diffusion_msgs_per_doc", "count/doc", "lower"},

	{"wire.overhead_x", "x", "lower"},
	{"wire.newcluster_s", "s", "lower"},
	{"wire.run_s", "s", "lower"},
	{"wire.bytes_total", "B", "lower"},
	{"wire.writes_total", "count", "lower"},
	{"wire.bytes_per_write", "B/write", "higher"},
	{"wire.bytes_per_update", "B/update", "lower"},
	{"wire.write_busy_s", "s", "lower"},
	{"wire.write_ns_per_write", "ns/write", "lower"},
	{"wire.read_wait_s", "s", "lower"},
	{"wire.dials_total", "count", "lower"},
	{"wire.dial_ms_p50", "ms", "lower"},
	{"wire.coalesce_ratio", "ratio", "higher"},
	{"wire.send_latency_p50_ms", "ms", "lower"},
	{"wire.send_latency_p99_ms", "ms", "lower"},
	{"wire.credit_stalls", "count", "lower"},
	{"wire.shed_coalesced", "count", "lower"},
	{"wire.slow_peer", "count", "lower"},
	{"wire.inbox_occupancy_peak", "count", "lower"},
	{"wire.unacked_frames_peak", "count", "lower"},
	{"wire.probe_rounds", "count", "lower"},
	{"wire.quiesce_lag_s", "s", "lower"},
	{"wire.retries", "count", "lower"},
	{"wire.reconnects", "count", "lower"},
	{"wire.redeliveries", "count", "lower"},
	{"wire.dup_dropped", "count", "lower"},
	{"wire.retransmit_ratio", "ratio", "lower"},
	{"wire.forwarded", "count", "lower"},
	{"wire.docs_migrated", "count", "lower"},
	{"wire.join_ms", "ms", "lower"},
	{"wire.ckpt_encode_ns_per_doc", "ns/doc", "lower"},
	{"wire.ckpt_decode_ns_per_doc", "ns/doc", "lower"},
	{"wire.ckpt_bytes_per_doc", "B/doc", "lower"},
	{"wire.delta_conservation_err", "ratio", "lower"},

	{"telemetry.snapshot_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
