package main

// metricDef is one metric of BENCHMARK.json; the smoke test holds the
// two lists below and that file to the same names and units.
type metricDef struct {
	Name string
	Unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_ms_p50", "ms"},
	{"lat_ms_p90", "ms"},
	{"ci_coverage", "share"},
	{"heap_live_mb", "MB"},
}

// perLayer lists the per-layer metrics, named layer.metric after the
// repo's modules. Count metrics are public counters differenced around
// the traced run's closed-loop phase; time metrics come from the
// traced pass's spans or from probes of single public functions. A
// time of 0 means the layer is not on the workload's traced path.
var perLayer = []metricDef{
	{"serve.http_ms", "ms"},
	{"serve.query_ms", "ms"},
	{"serve.lat_ms_p99", "ms"},
	{"serve.append_ms_p50", "ms"},
	{"serve.refresh_ms_p50", "ms"},
	{"serve.refreshes_per_append", "count"},
	{"serve.watch_shared_share", "share"},
	{"serve.rejected", "count"},
	{"serve.fail_share", "share"},
	{"core.runplan_ms", "ms"},
	{"core.coord_ms", "ms"},
	{"core.iterations", "count"},
	{"core.sample_size", "count"},
	{"core.exact_fallback_share", "share"},
	{"core.converged_share", "share"},
	{"sampling.pilot_ms", "ms"},
	{"sampling.draw_ms", "ms"},
	{"sampling.poolfill_ms", "ms"},
	{"sampling.records_per_op", "count"},
	{"aes.ssabe_ms", "ms"},
	{"aes.planned_n", "count"},
	{"aes.planned_b", "count"},
	{"bootstrap.mc_ms", "ms"},
	{"bootstrap.mc_p1_ms", "ms"},
	{"delta.grow_ms", "ms"},
	{"delta.updates_per_op", "count"},
	{"plan.prepare_ms", "ms"},
	{"plan.keep_ms", "ms"},
	{"plan.apply_ns_per_record", "ns"},
	{"plan.selectivity", "share"},
	{"colscan.hit_share", "share"},
	{"colscan.decode_ms_per_block", "ms"},
	{"colscan.cache_mb", "MB"},
	{"colseg.load_ms_per_block", "ms"},
	{"colseg.sidecar_reads_per_op", "count"},
	{"colseg.sidecar_errors", "count"},
	{"colseg.bytes_per_user_byte", "ratio"},
	{"colseg.extend_ms", "ms"},
	{"dfs.read_ms_per_mb", "ms/MB"},
	{"dfs.append_ms", "ms"},
	{"dfs.write_ms_per_mb", "ms/MB"},
	{"dfs.bytes_read_per_op", "B"},
	{"dfs.pins_end", "count"},
	{"journal.commits_per_query", "count"},
	{"journal.bytes_per_query", "B"},
	{"journal.bytes_per_user_byte", "ratio"},
	{"journal.replay_ms", "ms"},
	{"live.refresh_ms", "ms"},
	{"live.watch_create_ms", "ms"},
	{"live.records_per_refresh", "count"},
	{"proc.cpu_ms_per_op", "ms"},
	{"proc.cpu_share", "share"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.goroutines_end", "count"},
	{"proc.ops_per_s_p1", "1/s"},
	{"proc.box_slowdown", "ratio"},
	{"proc.sleep_100us_ms", "ms"},
	{"trace.overhead_share", "share"},
}
