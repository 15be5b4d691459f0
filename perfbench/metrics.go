package main

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics an operator of the emulator sees. Every workload
// reports every one of them for its own operation (README.md maps each to
// the workload-specific name: route-ready time, chaos runs/s, ...).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_cpu_ms", "ms", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_pct", "%", "higher"},
}

// spanNames are the layer boundaries the traced run wraps, in the order a
// workload crosses them. Each yields <name>_ms (median wall time per call;
// core.converge is in seconds) and <name>_alloc_mb (mean bytes allocated
// per call, process-wide).
var spanNames = []string{
	"topo.generate",
	"core.prepare",
	"core.mockup",
	"core.converge",
	"checkpoint.snapshot",
	"serve.pool_acquire",
	"checkpoint.fork",
	"core.fault",
	"core.reconverge",
	"batfish.sweep",
	"core.fib_diff",
	"core.teardown",
	"traffic.attach",
	"traffic.settle",
	"serve.handler",
	"http.transport",
	"scenario.report_json",
}

// spanUnit is the time unit a span's duration is reported in.
func spanUnit(name string) string {
	if name == "core.converge" {
		return "s"
	}
	return "ms"
}

// cpuModules are the buckets of the traced run's CPU profile, reported as
// <module>.cpu_pct. README.md gives the attribution rule.
var cpuModules = []string{
	"sim", "bgp", "rib", "trie", "firmware", "phynet", "netpkt", "dataplane",
	"traffic", "batfish", "checkpoint", "scenario", "serve", "core",
	"runtime_gc", "runtime_malloc", "encoding_json", "net_http", "other",
}

// layerCounts are the per-layer counters and ratios beside the spans.
var layerCounts = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"core.route_ready_vs", "s", "lower"},
	{"bgp.intern_hit_pct", "%", "higher"},
	{"bgp.intern_entries", "count", "lower"},
	{"rib.dense_mb", "MB", "lower"},
	{"batfish.pairs", "count", "lower"},
	{"traffic.aggregates", "count", "lower"},
	{"serve.pool_hit_pct", "%", "higher"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_ms", "ms", "lower"},
	{"op.samples", "count", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// perLayer lists every metric the traced run prints, in BENCHMARK.json
// order.
func perLayer() []metricDef {
	var out []metricDef
	for _, s := range spanNames {
		u := spanUnit(s)
		out = append(out,
			metricDef{s + "_" + u, u, "lower"},
			metricDef{s + "_alloc_mb", "MB", "lower"})
	}
	out = append(out, layerCounts...)
	for _, m := range cpuModules {
		out = append(out, metricDef{m + ".cpu_pct", "%", "lower"})
	}
	return out
}
