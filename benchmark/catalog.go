package main

import (
	"fmt"

	"repro/internal/experiments"
)

// driver is one catalog experiment as the traced run calls it in
// process. The names and their order are cmd/ecfbench's catalog; web
// marks the six short-transfer experiments of web-cold, every other one
// belongs to stream-cold.
type driver struct {
	name string
	web  bool
	run  func(sc experiments.Scale) fmt.Stringer
}

var drivers = []driver{
	{"table1", false, func(experiments.Scale) fmt.Stringer { return experiments.Table1() }},
	{"table2", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Table2(sc) }},
	{"table3", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Table3(sc) }},
	{"table4", true, func(sc experiments.Scale) fmt.Stringer { return experiments.Table4(sc) }},
	{"fig1", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure1(sc) }},
	{"fig2", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure2(sc) }},
	{"fig3", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure3(sc) }},
	{"fig5", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure5(sc) }},
	{"fig6", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure6(sc) }},
	{"fig7", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure7(sc) }},
	{"fig9", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure9(sc) }},
	{"fig10", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure10(sc) }},
	{"fig11", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure11(sc) }},
	{"fig12", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure12(sc) }},
	{"fig13", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure13(sc) }},
	{"fig14", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure14(sc) }},
	{"fig15", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure15(sc) }},
	{"fig16", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure16(sc) }},
	{"fig17", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure17(sc) }},
	{"fig18", true, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure18(sc) }},
	{"fig19", true, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure19(sc) }},
	{"fig20", true, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure20(sc) }},
	{"fig21", true, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure21(sc) }},
	{"fig22", false, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure22(sc) }},
	{"fig23", true, func(sc experiments.Scale) fmt.Stringer { return experiments.Figure23(sc) }},
}

// driversOf lists the web or the streaming drivers in catalog order.
func driversOf(web bool) []driver {
	var out []driver
	for _, d := range drivers {
		if d.web == web {
			out = append(out, d)
		}
	}
	return out
}

// expNames lists the experiments of web-cold or stream-cold.
func expNames(web bool) []string {
	var out []string
	for _, d := range driversOf(web) {
		out = append(out, d.name)
	}
	return out
}

func scaleOf(name string) experiments.Scale {
	if name == "quick" {
		return experiments.Quick
	}
	return experiments.Full
}

// metricDef describes one metric the harness prints. BENCHMARK.json
// lists the same names, units and directions; names_test.go keeps the
// two equal. Exact metrics repeat bit for bit for one seed and are
// compared with == by -selfcheck.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Exact  bool
}

// endToEndDefs are the metrics of a timed run (-trace 0). fail_ratio is
// not among them: it must be 0, and a metric that is 0 has no bound as a
// share of its median. It is the `failed`/`attempted` pair of the
// result line instead.
var endToEndDefs = []metricDef{
	{"wall_s", "s", "lower", false},
	{"cpu_s", "s", "lower", false},
	{"ns_per_pkt", "ns", "lower", false},
	{"us_per_cell", "us", "lower", false},
	{"setup_s", "s", "lower", false},
}

var schedulers = []string{"minrtt", "ecf", "blest", "daps"}

// cpuShareDefs are the packages each in-process pass's CPU profile is
// reported for, the ones that hold most of that pass's self time.
var cpuShareDefs = []struct {
	pass string
	pkgs []string
}{
	{"stream", []string{"sim", "netsim", "tcp", "mptcp", "sched", "cc", "runtime"}},
	{"web", []string{"sim", "netsim", "tcp", "trace", "runtime"}},
	{"warm", []string{"json", "runtime", "results", "experiments"}},
}

// layerDefs are the metrics of the traced run (-trace 1), grouped by
// the package they measure.
func layerDefs() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{name, unit, "lower", false} }
	exact := func(name, unit, better string) metricDef { return metricDef{name, unit, better, true} }
	defs := []metricDef{
		lower("sim.ns_per_event", "ns"),
		exact("sim.events_per_pkt.stream", "events/pkt", "lower"),
		exact("sim.events_per_pkt.web", "events/pkt", "lower"),
		exact("sim.coalesced_share.stream", "ratio", "higher"),
		exact("sim.coalesced_share.web", "ratio", "higher"),
		exact("sim.queue_depth_mean", "events", "lower"),
		exact("sim.queue_depth_max", "events", "lower"),

		lower("netsim.ns_per_pkt", "ns"),
		lower("netsim.ns_per_pkt_lossy", "ns"),
		exact("netsim.pkts.stream", "count", "lower"),
		exact("netsim.pkts.web", "count", "lower"),

		lower("tcp.ns_per_pkt", "ns"),
		lower("tcp.short_flow_us", "us"),
		lower("tcp.allocs_per_pkt", "allocs/pkt"),

		lower("cc.reno.ns_per_pkt", "ns"),
		lower("cc.lia.ns_per_pkt", "ns"),
	}
	for _, s := range schedulers {
		defs = append(defs, lower("mptcp.ns_per_pkt."+s, "ns"))
	}
	defs = append(defs,
		exact("mptcp.reinjections", "count", "lower"),
		exact("mptcp.penalties", "count", "lower"),
		exact("mptcp.window_stalls", "count", "lower"),
		exact("sched.waits.ecf", "count", "lower"),
		exact("sched.waits.blest", "count", "lower"),
	)
	for _, s := range schedulers {
		defs = append(defs, exact("sched.fig9_mean_ratio."+s, "ratio", "higher"))
	}
	defs = append(defs,
		lower("core.cell_setup_us", "us"),
		lower("core.allocs_per_cell", "allocs/cell"),
		lower("trace.jitter_ns_per_tick", "ns"),
	)
	for _, d := range drivers {
		defs = append(defs, lower("experiments."+d.name+".wall_ms", "ms"))
	}
	defs = append(defs,
		lower("experiments.render_ms", "ms"),
		exact("experiments.cells.stream", "count", "lower"),
		exact("experiments.cells.web", "count", "lower"),

		lower("results.put_us", "us"),
		lower("results.get_us", "us"),
		lower("results.warm_us_per_cell", "us"),
		exact("results.hit_ratio.warm", "ratio", "higher"),
		exact("results.shared_cell_ratio", "ratio", "higher"),
		exact("results.record_bytes_mean", "bytes", "lower"),
		exact("results.store_files", "count", "lower"),

		metricDef{"runner.parallel_efficiency", "ratio", "higher", false},

		lower("coord.claim_ms", "ms"),
		lower("coord.ingest_ms", "ms"),
		lower("coord.heartbeat_ms", "ms"),
		exact("coord.passes", "count", "lower"),
		exact("coord.duplicates", "count", "lower"),
		lower("coord.overhead_us_per_cell", "us"),
	)
	for _, g := range cpuShareDefs {
		for _, p := range g.pkgs {
			defs = append(defs, lower("cpu_share."+g.pass+"."+p, "ratio"))
		}
	}
	return append(defs,
		lower("ecfbench.peak_rss_mb.stream", "MB"),
		lower("ecfbench.peak_rss_mb.warm", "MB"),
		lower("ecfbench.startup_ms", "ms"),
		lower("host.calib_ns", "ns"),
		lower("bench.trace_overhead_pct", "%"),
		lower("bench.self_ms", "ms"),
	)
}
