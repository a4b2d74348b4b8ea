package main

import "math"

// metricDef is one metric the benchmark reports.
type metricDef struct {
	name string
	unit string
}

// endToEndMetrics are what a user of the checker pays per op, reported
// by every workload's untraced run and gated by BENCHMARK.json. They
// are the figures that repeat from run to run on a shared host.
var endToEndMetrics = []metricDef{
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// advisoryMetrics are printed with every untraced run but left out of
// the result line: wall time on a shared host moves with the
// neighbours' load (its run-to-run spread measured 10-45%, past any
// bound BENCHMARK.json may set), so it cannot gate a change. The
// failure share is printed too; it rides in the result line's
// attempted and failed counts, being 0 on a correct program.
var advisoryMetrics = []metricDef{
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayerMetrics are the traced run's ledger, per op unless the name
// says otherwise. A layer the workload never calls reads 0.
var perLayerMetrics = []metricDef{
	{"minic.parse_us", "us"},
	{"minic.sema_us", "us"},
	{"minic.alloc_kb", "kB"},
	{"minic.tokens", "count"},
	{"static.analyze_us", "us"},
	{"static.sites_instrumented", "count"},
	{"interp.run_ms", "ms"},
	{"interp.ns_per_stmt", "ns"},
	{"interp.alloc_kb", "kB"},
	{"interp.statements", "count"},
	{"mpi.sends", "count"},
	{"mpi.msgs_matched", "count"},
	{"mpi.collective_rounds", "count"},
	{"omp.parallel_regions", "count"},
	{"omp.lock_acquires", "count"},
	{"omp.lock_contended", "count"},
	{"sim.makespan_ns", "ns"},
	{"trace.events", "count"},
	{"trace.ns_per_emit", "ns"},
	{"detect.online_ns_per_event", "ns"},
	{"detect.online_alloc_b_per_event", "B"},
	{"detect.analyze_ms", "ms"},
	{"detect.vc_joins", "count"},
	{"detect.epoch_hits", "count"},
	{"detect.confirmed_races", "count"},
	{"spec.match_us", "us"},
	{"spec.ns_per_race", "ns"},
	{"spec.alloc_kb", "kB"},
	{"baseline.base_ms", "ms"},
	{"baseline.marmot_ms", "ms"},
	{"baseline.itc_ms", "ms"},
	{"gc.cycles_per_op", "count"},
	{"traced.op_ms", "ms"},
	{"traced.unattributed_ms", "ms"},
	{"trace_overhead_frac", "ratio"},
}

// recordReplayMetrics are fault-replay's own ledger rows, the layers
// only it calls. Like serve-mix, fault-replay is not registered in
// BENCHMARK.json (see README), so these ride as the workload's extras.
var recordReplayMetrics = []metricDef{
	{"explain.extract_us", "us"},
	{"explain.witnesses", "count"},
	{"sched.encode_us", "us"},
	{"sched.decode_us", "us"},
	{"sched.replay_run_ms", "ms"},
	{"sched.bytes_v3", "B"},
	{"sched.records", "count"},
	{"sched.replay_forced", "count"},
	{"chaos.msg_delays", "count"},
	{"chaos.send_retries", "count"},
}

// endToEnd computes the untraced run's metrics, advisory ones included.
func endToEnd(win *window, setupS float64) map[string]metric {
	n := float64(max(win.attempted, 1))
	lat := append([]float64(nil), win.lat...)
	ms := map[string]metric{
		"op_ms_p50":       {percentile(lat, 0.5), "ms"},
		"op_ms_p90":       {percentile(lat, 0.9), "ms"},
		"ops_per_s":       {float64(len(win.lat)) / win.elapsed.Seconds(), "1/s"},
		"cpu_ms_per_op":   {float64(win.cost.cpu.Nanoseconds()) / 1e6 / n, "ms"},
		"alloc_mb_per_op": {float64(win.cost.allocB) / (1 << 20) / n, "MB"},
		"allocs_per_op":   {float64(win.cost.allocObj) / n, "count"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"setup_s":         {setupS, "s"},
	}
	for k, v := range win.extra {
		ms[k] = metric{v, unitOf(k)}
	}
	return ms
}

// perLayer assembles the traced run's ledger. plain is the untraced
// half of the run, the reference for the tracing overhead.
func perLayer(tr *tracer, traced, plain *window) map[string]metric {
	ms := map[string]metric{}
	for _, m := range perLayerMetrics {
		ms[m.name] = metric{tr.value(m.name, m.unit), m.unit}
	}
	ms["gc.cycles_per_op"] = metric{float64(traced.cost.gcCycles) / float64(max(len(traced.lat), 1)), "count"}
	// The traced op's own span excludes the probes taken after it
	// (emit replay, offline analysis), so it compares like for like.
	base := percentile(append([]float64(nil), plain.lat...), 0.5)
	frac := tr.value("traced.op_ms", "ms")/base - 1
	if math.IsNaN(frac) || math.IsInf(frac, 0) {
		frac = 0
	}
	ms["trace_overhead_frac"] = metric{frac, "ratio"}
	for k, v := range traced.extra {
		ms[k] = metric{v, unitOf(k)}
	}
	return ms
}

// unitOf finds a declared metric's unit by name.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEndMetrics, advisoryMetrics, perLayerMetrics, recordReplayMetrics, serveMetrics} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return "count"
}
