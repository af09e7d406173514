package main

// endToEnd lists the metrics a -trace 0 run reports, on every workload.
// What each means per workload is in README.md.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"answer_s", "s"},
	{"cpu_s", "s"},
}

// perLayer lists the metrics a -trace 1 run reports, on every workload. A
// layer the workload does not exercise reports 0: the workload bypasses
// it.
var perLayer = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"sim.run_s", "s"},
	{"sim.events_per_s", "1/s"},
	{"sim.pending_max", "count"},
	{"sched.ns_per_event", "ns"},
	{"dist.ns_per_exp_draw", "ns"},
	{"stats.ns_per_add", "ns"},
	{"net.delivered", "count"},
	{"net.forwarded", "count"},
	{"net.events_per_packet", "events/pkt"},
	{"net.ns_per_packet", "ns"},
	{"trace.read_s", "s"},
	{"fit.stats_s", "s"},
	{"fit.moment_s", "s"},
	{"fit.moment_iters", "count"},
	{"fit.em_s", "s"},
	{"fit.em_iters", "count"},
	{"fit.em_ns_per_sample_iter", "ns"},
	{"fit.select_s", "s"},
	{"fit.ns_per_add_slide", "ns"},
	{"ctrl.refit_ms", "ms"},
	{"ctrl.solve_ms", "ms"},
	{"ctrl.em_iters_per_refit", "count"},
	{"gm1.sigma_iters_per_solve", "count"},
	{"ctrl.refit_useful_ratio", "ratio"},
	{"stream.lst_us", "us"},
	{"stream.solve_us", "us"},
	{"stream.admit_ms", "ms"},
	{"agg.states", "count"},
	{"agg.superpose_ms", "ms"},
	{"agg.solve_ms", "ms"},
	{"agg.admit_ms", "ms"},
	{"ingest.loss_ratio", "ratio"},
	{"gen.late_ms_p99", "ms"},
	{"hapd.decisions", "count"},
	{"hapd.decision_ms_p50", "ms"},
	{"hapd.decision_ms_p95", "ms"},
	{"hapd.agg_decision_ms_p50", "ms"},
	{"hapd.query_ms_p50", "ms"},
	{"hapd.query_ms_p99", "ms"},
	{"proc.peak_rss_mb", "MB"},
	{"tracing_overhead_pct", "%"},
}

// zeroPerLayer seeds every per-layer metric at 0 so a traced run reports
// the full list whichever layers its workload reaches.
func zeroPerLayer(r *run) {
	for _, m := range perLayer {
		r.set(m.name, m.unit, 0)
	}
}

// unitOf returns a per-layer metric's unit.
func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}

// setL sets a per-layer metric by name.
func (r *run) setL(name string, v float64) { r.set(name, unitOf(name), v) }
