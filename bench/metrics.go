package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// repeats these tables; bench_test.go holds the two equal.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd is what a user of the system sees, printed by an untraced run
// (--trace 0) of every workload.
//
//   - ops_per_s: successful ops per reference second (refclock.go) of the
//     timed phase. Pass-structured workloads (sim_large, cold_*) report the
//     median whole pass, the others the median of five equal windows, so
//     one disturbed stretch of a run does not move the number.
//   - op_ms_p50: median client-observed op time in reference
//     milliseconds; on sim_large the geometric mean of the three kernels'
//     median launch times. (The mean op time of a closed loop of C clients
//     is C / ops_per_s and needs no metric; the tail is client.* of the
//     traced run, README.md says why it is not gated.)
//   - peak_rss_mb: resident set of the benchmark process (program under
//     test and load generator share it) during the timed phase, sampled
//     every 20 ms after set-up garbage went back to the OS: the median of
//     the peaks of five equal stretches of the phase.
//   - setup_s: corpus build + server/store/cluster start + pre-warm (+
//     populate and restart on durable_read) in reference seconds, median
//     of the set-ups a run makes.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

var simLargeKernels = []string{"sgemm_naive", "jacobi_naive", "mixbench_sp_naive"}

// perLayer is what the traced run (--trace 1) prints: <module>.<metric>.
// Times are mean self time per traced op unless the name says otherwise; a
// layer a workload does not touch reads 0.
var perLayer = func() []metricDef {
	ms := func(names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: "ms", better: "lower"})
		}
		return
	}
	count := func(better string, names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: "count", better: better})
		}
		return
	}
	var defs []metricDef
	for _, suffix := range append([]string{""}, simLargeKernels...) {
		if suffix != "" {
			suffix = "." + suffix
		}
		defs = append(defs,
			metricDef{name: "sim.launch_ms" + suffix, unit: "ms", better: "lower"},
			metricDef{name: "sim.host_ns_per_cycle" + suffix, unit: "ns", better: "lower"},
			metricDef{name: "sim.host_ns_per_warp_inst" + suffix, unit: "ns", better: "lower"},
		)
	}
	// Exact simulated counts over the traced ops: identical between
	// commits unless a change says it alters the model.
	defs = append(defs, count("lower", "sim.cycles_total", "sim.warp_insts_total", "sim.allocs_per_launch")...)
	defs = append(defs, metricDef{name: "sim.parallel_wall_ratio", unit: "ratio", better: "higher"})
	defs = append(defs, ms("workloads.prepare_ms", "workloads.verify_ms", "workloads.build_ms",
		"sass.print_ms", "service.cache_key_ms",
		"scout.analyze_self_ms", "sass.view_ms", "scout.detect_ms", "cupti.collect_ms", "ncu.collect_ms",
		"advisor.verify_ms", "advisor.sweep_ms")...)
	defs = append(defs, count("lower", "advisor.reruns_per_op")...)
	defs = append(defs, ms("scout.marshal_json_ms", "scout.render_ms")...)
	defs = append(defs, metricDef{name: "scout.report_bytes", unit: "B", better: "lower"})
	defs = append(defs, ms("sass.parse_ms", "cubin.decode_ms", "service.hit_ms", "service.http_overhead_ms")...)
	defs = append(defs, metricDef{name: "service.cache_hit_ratio", unit: "ratio", better: "higher"})
	defs = append(defs, count("lower", "service.shed_total", "service.retries_total", "service.degraded_total")...)
	defs = append(defs, ms("store.append_accept_ms", "store.append_tombstone_ms", "store.put_report_ms",
		"store.get_report_ms", "store.open_ms", "store.restart_ms")...)
	defs = append(defs, metricDef{name: "store.bytes_on_disk", unit: "B", better: "lower"})
	defs = append(defs, count("higher", "store.hits_total")...)
	defs = append(defs, ms("cluster.proxy_overhead_ms")...)
	defs = append(defs, metricDef{name: "cluster.ring_owner_ns", unit: "ns", better: "lower"})
	defs = append(defs, ms("cluster.peer_fill_ms")...)
	defs = append(defs,
		metricDef{name: "cluster.affinity_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "cluster.replica_skew", unit: "ratio", better: "lower"})
	defs = append(defs, ms("client.op_ms_p50", "client.op_ms_p90", "client.op_ms_p99", "client.op_ms_max", "client.check_ms")...)
	defs = append(defs, count("higher", "client.samples")...)
	defs = append(defs,
		metricDef{name: "runtime.alloc_kb_per_op", unit: "kB", better: "lower"},
		metricDef{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower"},
		metricDef{name: "runtime.gc_pause_ms_total", unit: "ms", better: "lower"},
		metricDef{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
		metricDef{name: "trace.coverage", unit: "ratio", better: "higher"})
	return defs
}()
