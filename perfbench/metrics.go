package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (record_test.go keeps them in step).
// Moves names the end-to-end metric and workload a per-layer metric
// should move; BENCHMARK.json has no field for it, so the traced run
// prints it next to each value.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd metrics come from untraced repetitions and are reported on
// every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "refs_per_s", unit: "refs/s", better: "higher"},
	{name: "peak_mem_mb", unit: "MB", better: "lower"},
	{name: "allocs_per_ref", unit: "allocs/ref", better: "lower"},
}

// perLayer metrics come from the traced run. The pdes, sampling and
// harness metrics read the workload's own repetitions, and the accuracy
// metrics its own checks, so each reads 0 on a workload that does not
// run that engine, the runner or a paper table.
var perLayer = []metricDef{
	{"workload.next_ns", "ns", "lower", "refs_per_s on mix_seq; larger share on mix_sampled"},

	{"cache.l0_access_per_ref", "1/ref", "lower", "refs_per_s on mix_seq, wall_s on figures"},
	{"cache.l0_hit_ratio", "ratio", "higher", "refs_per_s on mix_seq, wall_s on figures"},
	{"cache.l1_hit_ratio", "ratio", "higher", "refs_per_s on mix_seq, wall_s on figures"},
	{"cache.llc_access_per_ref", "1/ref", "lower", "refs_per_s on mix_seq, wall_s on figures"},
	{"cache.llc_hit_ratio", "ratio", "higher", "refs_per_s on mix_seq, wall_s on figures"},
	{"cache.llc_evict_per_ref", "1/ref", "lower", "refs_per_s on mix_seq, wall_s on figures"},
	{"cache.lookup_hit_ns", "ns", "lower", "refs_per_s on mix_seq, wall_s on figures"},
	{"cache.lookup_miss_ns", "ns", "lower", "refs_per_s on mix_seq, wall_s on figures"},
	{"cache.insert_evict_ns", "ns", "lower", "refs_per_s on mix_seq, wall_s on figures"},

	{"coherence.dircache_access_per_ref", "1/ref", "lower", "wall_s on figures more than refs_per_s on mix_seq"},
	{"coherence.dircache_hit_ratio", "ratio", "higher", "wall_s on figures more than refs_per_s on mix_seq"},
	{"coherence.dir_entries", "count", "lower", "wall_s on figures more than refs_per_s on mix_seq"},
	{"coherence.c2c_per_ref", "1/ref", "lower", "wall_s on figures more than refs_per_s on mix_seq"},
	{"coherence.inval_per_ref", "1/ref", "lower", "wall_s on figures more than refs_per_s on mix_seq"},
	{"coherence.upgrade_per_ref", "1/ref", "lower", "wall_s on figures more than refs_per_s on mix_seq"},
	{"coherence.dir_get_ns", "ns", "lower", "wall_s on figures more than refs_per_s on mix_seq"},
	{"coherence.dir_release_ns", "ns", "lower", "wall_s on figures more than refs_per_s on mix_seq"},
	{"coherence.dircache_access_ns", "ns", "lower", "wall_s on figures more than refs_per_s on mix_seq"},

	{"mesh.avg_hops", "hops", "lower", "refs_per_s on mix_seq, wall_s on figures"},
	{"mesh.avg_wait_cycles", "cycles", "lower", "refs_per_s on mix_seq, wall_s on figures"},
	{"mesh.latency_ns", "ns", "lower", "refs_per_s on mix_seq, wall_s on figures"},

	{"memctrl.reads_per_ref", "1/ref", "lower", "refs_per_s on mix_seq"},
	{"memctrl.writebacks_per_ref", "1/ref", "lower", "refs_per_s on mix_seq"},
	{"memctrl.avg_wait_cycles", "cycles", "lower", "refs_per_s on mix_seq"},
	{"memctrl.read_ns", "ns", "lower", "refs_per_s on mix_seq"},

	{"sim.eventq_pushpop_ns", "ns", "lower", "refs_per_s on mix_seq, not the warming walk"},

	{"core.warmup_s", "s", "lower", "wall_s on every workload"},
	{"core.measure_s", "s", "lower", "wall_s on every workload"},
	{"core.ns_per_ref", "ns", "lower", "refs_per_s on every workload"},
	{"core.layer_cover_ratio", "ratio", "higher", "none: checks the layer-cost table"},
	{"core.residue_ns_per_ref", "ns", "lower", "refs_per_s on mix_seq"},

	{"pdes.window_s", "s", "lower", "wall_s on mix_pdes"},
	{"pdes.replay_s", "s", "lower", "wall_s on mix_pdes"},
	{"pdes.replay_parallel_s", "s", "lower", "wall_s on mix_pdes"},
	{"pdes.replay_merge_s", "s", "lower", "wall_s on mix_pdes"},
	{"pdes.barrier_s", "s", "lower", "wall_s on mix_pdes"},
	{"pdes.stall_s", "s", "lower", "wall_s on mix_pdes"},
	{"pdes.domain_busy_s", "s", "lower", "wall_s on mix_pdes"},
	{"pdes.windows", "count", "lower", "wall_s on mix_pdes"},
	{"pdes.ops_per_ref", "1/ref", "lower", "wall_s on mix_pdes"},
	{"pdes.apply_fraction", "ratio", "lower", "wall_s on mix_pdes"},
	{"pdes.work_inflation", "ratio", "lower", "wall_s on mix_pdes"},
	{"pdes.speedup_vs_seq", "ratio", "higher", "wall_s on mix_pdes"},

	{"sample.detailed_s", "s", "lower", "wall_s on mix_sampled"},
	{"sample.ff_s", "s", "lower", "wall_s on mix_sampled"},
	{"sample.windows", "count", "lower", "wall_s on mix_sampled"},
	{"sample.detailed_refs", "refs", "lower", "wall_s on mix_sampled"},
	{"sample.skipped_refs", "refs", "higher", "refs_per_s on mix_sampled"},
	{"sample.ff_cost_ratio", "ratio", "lower", "wall_s on mix_sampled"},
	{"sample.rel_ci", "ratio", "lower", "wall_s on mix_sampled"},

	{"harness.sims", "count", "lower", "wall_s on figures"},
	{"harness.memo_hit_ratio", "ratio", "higher", "wall_s on figures"},
	{"harness.newsystem_s", "s", "lower", "setup_s and wall_s on figures"},
	{"harness.pool_util", "ratio", "higher", "wall_s on figures"},
	{"harness.sim_wall_max_s", "s", "lower", "wall_s on figures"},

	{"obs.trace_overhead_frac", "ratio", "lower", "none: untraced runs give the end-to-end metrics"},

	{"failed_frac", "ratio", "lower", "every metric on every workload: a failed operation counts as missing"},
	{"max_rel_err", "ratio", "lower", "accuracy on mix_pdes and mix_sampled"},
	{"table2_c2c_err", "ratio", "lower", "model accuracy on figures"},
}
