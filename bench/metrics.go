package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatchesCatalogue).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd is what a user of the system sees; every workload reports all
// of them from its untraced reps (the driver's contract has no cell that
// is not applicable; README.md says what each measures on each workload).
// The three timings are at the reference machine speed (result.setTimed).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"records_per_s", "records/s", "higher"},
	{"wire_bytes_per_record", "B/record", "lower"},
	{"query_batch_p50_ms", "ms", "lower"},
}

// alsoUntraced is what the issue listed as end-to-end and the contract's
// rules (steady on every workload, never zero) made per-layer metrics;
// untraced reps still measure them, and the one command prints them.
var alsoUntraced = []metricDef{
	{"pipeline.setup_raw_s", "s", "lower"},
	{"pipeline.records_per_s_raw", "records/s", "higher"},
	{"query.batch_p50_raw_ms", "ms", "lower"},
	{"calib.speed", "ratio", "higher"},
	{"query.points_per_s", "points/s", "higher"},
	{"pipeline.ingest_to_visible_p50_ms", "ms", "lower"},
	{"pipeline.ingest_to_visible_p90_ms", "ms", "lower"},
	{"pipeline.ingest_to_visible_p99_ms", "ms", "lower"},
	{"netio.updates_per_s", "msgs/s", "higher"},
	{"query.batch_p99_ms", "ms", "lower"},
	{"durable.recover_s", "s", "lower"},
}

// perLayer is measured in the traced reps; the prefix is the module.
var perLayer = []metricDef{
	{"pipeline.setup_raw_s", "s", "lower"},
	{"pipeline.records_per_s_raw", "records/s", "higher"},
	{"pipeline.ingest_to_visible_p50_ms", "ms", "lower"},
	{"pipeline.ingest_to_visible_p90_ms", "ms", "lower"},
	{"pipeline.ingest_to_visible_p99_ms", "ms", "lower"},
	{"site.observe_ns_per_record", "ns", "lower"},
	{"site.chunk_close_ms_p50", "ms", "lower"},
	{"site.chunk_close_ms_p99", "ms", "lower"},
	{"site.blocked_share", "ratio", "lower"},
	{"site.chunks", "count", "higher"},
	{"site.tests", "count", "lower"},
	{"site.fits", "count", "higher"},
	{"site.reactivated", "count", "higher"},
	{"site.refits", "count", "lower"},
	{"site.em_runs", "count", "lower"},
	{"site.warm_refits", "count", "higher"},
	{"site.prune_hits", "count", "higher"},
	{"site.prune_fallbacks", "count", "lower"},
	{"site.fit_share", "ratio", "higher"},
	{"site.model_list_bytes", "B", "lower"},
	{"chunk.add_ns_per_record", "ns", "lower"},
	{"gaussian.score_ns_per_record", "ns", "lower"},
	{"gaussian.bounds_ns_per_record", "ns", "lower"},
	{"gaussian.fitmerge_ms_p50", "ms", "lower"},
	{"linalg.quadform_ns_per_record", "ns", "lower"},
	{"kdtree.nearestk_ns", "ns", "lower"},
	{"em.fit_ms_p50", "ms", "lower"},
	{"em.fit_ms_p99", "ms", "lower"},
	{"em.iters_per_fit", "iters", "lower"},
	{"transport.encode_ns_per_msg", "ns", "lower"},
	{"transport.decode_ns_per_msg", "ns", "lower"},
	{"transport.bytes_per_msg", "B", "lower"},
	{"netio.send_ms_p50", "ms", "lower"},
	{"netio.send_ms_p99", "ms", "lower"},
	{"netio.self_ms_p50", "ms", "lower"},
	{"netio.updates_per_s", "msgs/s", "higher"},
	{"netio.acked", "count", "higher"},
	{"netio.retries", "count", "lower"},
	{"netio.reconnects", "count", "lower"},
	{"netio.dropped", "count", "lower"},
	{"netio.rejected", "count", "lower"},
	{"netio.duplicates", "count", "lower"},
	{"durable.append_ms_p50", "ms", "lower"},
	{"durable.append_ms_p99", "ms", "lower"},
	{"durable.dedupe_admit_ns", "ns", "lower"},
	{"durable.checkpoint_ms_p50", "ms", "lower"},
	{"durable.checkpoints", "count", "lower"},
	{"durable.checkpoint_bytes", "B", "lower"},
	{"durable.wal_bytes", "B", "lower"},
	{"durable.replayed_records", "count", "lower"},
	{"durable.recover_s", "s", "lower"},
	{"durable.recover_byte_mismatch", "count", "lower"},
	{"coordinator.apply_new_model_ms_p50", "ms", "lower"},
	{"coordinator.apply_new_model_ms_p99", "ms", "lower"},
	{"coordinator.apply_weight_ms_p50", "ms", "lower"},
	{"coordinator.apply_weight_ms_p99", "ms", "lower"},
	{"coordinator.apply_deletion_ms_p50", "ms", "lower"},
	{"coordinator.apply_deletion_ms_p99", "ms", "lower"},
	{"coordinator.busy_share", "ratio", "lower"},
	{"coordinator.global_mixture_ms_p50", "ms", "lower"},
	{"coordinator.models", "count", "lower"},
	{"coordinator.leaves", "count", "lower"},
	{"coordinator.groups", "count", "lower"},
	{"coordinator.multi_member_group_share", "ratio", "lower"},
	{"coordinator.splits", "count", "lower"},
	{"coordinator.remerges", "count", "lower"},
	{"coordinator.memory_bytes", "B", "lower"},
	{"query.publish_ms_p50", "ms", "lower"},
	{"query.publishes", "count", "higher"},
	{"query.served_k", "count", "lower"},
	{"query.classify_ns", "ns", "lower"},
	{"query.density_ns", "ns", "lower"},
	{"query.topk_ns", "ns", "lower"},
	{"query.http_overhead_ms_p50", "ms", "lower"},
	{"query.points_per_s", "points/s", "higher"},
	{"query.batch_p50_raw_ms", "ms", "lower"},
	{"query.batch_p99_ms", "ms", "lower"},
	{"loadgen.late_ms_p99", "ms", "lower"},
	{"loadgen.pool_records", "records", "lower"},
	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.gc_pause_ms_total", "ms", "lower"},
	{"proc.allocs_per_record", "allocs", "lower"},
	{"proc.steal_share", "ratio", "lower"},
	{"calib.quadform_ns", "ns", "lower"},
	{"calib.quadform_after_ns", "ns", "lower"},
	{"calib.memwalk_ns", "ns", "lower"},
	{"calib.speed", "ratio", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
}
