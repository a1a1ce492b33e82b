package main

// metricDef names one reported metric with its unit and direction, exactly
// as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what every workload reports in the JSON line with --trace 0.
// Each is measured on every workload and is never zero. The two times are
// CPU times, which CPU steal on a shared virtual machine does not inflate.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// workloadMetrics are end-to-end figures printed by name with unit and
// direction but not put in the JSON line: the wall times, which CPU steal
// makes too noisy to gate on, and the workload-specific figures, since the
// JSON line's metrics must be the same on every workload. The speedups and heldout_speedup are
// simulated and repeat exactly; the p50/p99 latencies of each serving phase
// are printed after these, with their sample counts.
var workloadMetrics = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_wall_s", "s", "lower"},
	{"speedup_prophet", "x", "higher"},
	{"speedup_triangel", "x", "higher"},
	{"speedup_triage", "x", "higher"},
	{"prophet_vs_triangel", "x", "higher"},
	{"time_to_binary_s", "s", "lower"},
	{"heldout_speedup", "x", "higher"},
	{"hints", "count", "higher"},
	{"fill_s", "s", "lower"},
	{"memory_phase_s", "s", "lower"},
	{"disk_phase_s", "s", "lower"},
}

// Scheme sets of the per-layer breakdowns.
var (
	allSchemes      = []string{"baseline", "triage", "triangel", "prophet"}
	temporalSchemes = []string{"triage", "triangel", "prophet"}
)

// perLayer is what every workload reports with --trace 1, grouped by the
// repository module the number belongs to. A layer a workload does not
// exercise reports 0 (serve-tiers runs no stage-by-stage simulation; the sim
// workloads start no server).
func perLayer() []metricDef {
	out := []metricDef{
		{"workloads.gen_s", "s", "lower"},
		{"pipeline.baseline_s", "s", "lower"},
		{"pipeline.triage_s", "s", "lower"},
		{"pipeline.triangel_s", "s", "lower"},
		{"pipeline.profile_s", "s", "lower"},
		{"learning.learn_s", "s", "lower"},
		{"analysis.analyze_s", "s", "lower"},
		{"pipeline.optimized_run_s", "s", "lower"},
		{"prophet.job_s", "s", "lower"},
		{"prophet.baseline_hits", "count", "higher"},
		{"prophet.baseline_misses", "count", "lower"},
	}
	for _, s := range allSchemes {
		out = append(out,
			metricDef{"sim.ns_per_record." + s, "ns", "lower"},
			metricDef{"cpu.ipc." + s, "IPC", "higher"},
			metricDef{"cache.l1_hits." + s, "count", "higher"},
			metricDef{"cache.l1_misses." + s, "count", "lower"},
			metricDef{"cache.l2_hits." + s, "count", "higher"},
			metricDef{"cache.l2_misses." + s, "count", "lower"},
			metricDef{"cache.l3_hits." + s, "count", "higher"},
			metricDef{"cache.l3_misses." + s, "count", "lower"},
			metricDef{"dram.reads." + s, "count", "lower"},
			metricDef{"dram.writes." + s, "count", "lower"},
		)
	}
	out = append(out,
		metricDef{"cache.access_ns", "ns", "lower"},
		metricDef{"dram.read_ns", "ns", "lower"},
	)
	for _, s := range temporalSchemes {
		out = append(out,
			metricDef{"temporal.onaccess_ns." + s, "ns", "lower"},
			metricDef{"temporal.issued." + s, "count", "higher"},
			metricDef{"temporal.useful." + s, "count", "higher"},
			metricDef{"temporal.accuracy." + s, "ratio", "higher"},
			metricDef{"temporal.coverage." + s, "ratio", "higher"},
			metricDef{"temporal.meta_ways." + s, "ways", "lower"},
		)
	}
	return append(out,
		metricDef{"temporal.table_lookup_ns", "ns", "lower"},
		metricDef{"temporal.table_insert_ns", "ns", "lower"},
		metricDef{"core.mvb_ns", "ns", "lower"},
		metricDef{"core.hints", "count", "higher"},
		metricDef{"server.handler_us", "us", "lower"},
		metricDef{"server.roundtrip_us", "us", "lower"},
		metricDef{"server.tier.memory", "count", "higher"},
		metricDef{"server.tier.disk", "count", "higher"},
		metricDef{"server.tier.computed", "count", "lower"},
		metricDef{"server.tier.coalesced", "count", "higher"},
		metricDef{"resultstore.get_us", "us", "lower"},
		metricDef{"resultstore.put_us", "us", "lower"},
		metricDef{"resultstore.bytes", "bytes", "lower"},
		metricDef{"resultstore.corrupt_skipped", "count", "lower"},
		metricDef{"trace.overhead_s", "s", "lower"},
		metricDef{"trace.spans", "count", "lower"},
	)
}
