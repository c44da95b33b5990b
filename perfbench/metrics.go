package main

// The metric names BENCHMARK.json declares, with their units. Every
// end-to-end run prints every endToEnd metric, and every traced run
// every perLayer metric, whatever its workload; the self-test checks
// both lists against BENCHMARK.json.

// endToEnd metrics are measured on every workload. An operation is one
// gsched invocation (cli_huge), one pass over the four proxies
// (paper_spec) or one request at the reference rate (serve_mix).
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"wall_ms", "ms"},
	{"cpu_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer metrics are the union of the layers the three workloads
// exercise. A traced run prints a layer that is not on its workload's
// path, or a percentile too few samples support, as 0 and says so in
// its report.
var perLayer = []metricName{
	// cli_huge and paper_spec, from the in-process traced pipeline.
	{"asm.prescan_ms", "ms"},
	{"asm.parse_ms", "ms"},
	{"minic.compile_ms", "ms"},
	{"opt.ms", "ms"},
	{"rename.ms", "ms"},
	{"pdg.ms", "ms"},
	{"core.region_ms", "ms"},
	{"core.local_ms", "ms"},
	{"xform.transform_ms", "ms"},
	{"xform.run_ms", "ms"},
	{"xform.untraced_ms", "ms"},
	{"asm.print_ms", "ms"},
	{"untraced_ms", "ms"},
	{"asm.parse_allocs_per_instr", "allocs/instr"},
	{"xform.run_allocs_per_instr", "allocs/instr"},
	{"verify.overhead_pct", "%"},
	{"rename.webs", "count"},
	{"core.regions_scheduled", "count"},
	{"core.useful_moves", "count"},
	{"core.speculative_moves", "count"},
	{"xform.loops_unrolled", "count"},
	{"xform.loops_rotated", "count"},
	// paper_spec's simulated code quality.
	{"sim.speedup_geomean", "x"},
	{"sim.cycles.li", "cycles"},
	{"sim.cycles.eqntott", "cycles"},
	{"sim.cycles.espresso", "cycles"},
	{"sim.cycles.gcc", "cycles"},
	// serve_mix: /metrics deltas, in-process per-request layer times,
	// the load generator and the latencies.
	{"serve.store.memory.hit_ratio", "ratio"},
	{"serve.store.disk.hit_ratio", "ratio"},
	{"serve.store.computes", "count"},
	{"serve.store.puts", "count"},
	{"serve.store.evictions", "count"},
	{"serve.singleflight_waits", "count"},
	{"serve.schedule_runs", "count"},
	{"serve.phase.rename_ms_per_run", "ms"},
	{"serve.phase.pdg_ms_per_run", "ms"},
	{"serve.phase.region_ms_per_run", "ms"},
	{"serve.phase.local_ms_per_run", "ms"},
	{"serve.phase.xform_ms_per_run", "ms"},
	{"serve.json_decode_us", "us"},
	{"minic.resolve_us", "us"},
	{"asm.canon_hash_us", "us"},
	{"serve.store.memory_get_us", "us"},
	{"serve.store.disk_get_us", "us"},
	{"serve.store.disk_put_us", "us"},
	{"serve.schedule_us", "us"},
	{"serve.marshal_us", "us"},
	{"http.rtt_us", "us"},
	{"hit.untraced_us", "us"},
	{"miss.untraced_us", "us"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"hit_p50_ms", "ms"},
	{"disk_p50_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"max_ok_rps", "req/s"},
	// Every workload.
	{"trace.overhead_pct", "%"},
}

type metricName struct{ name, unit string }
