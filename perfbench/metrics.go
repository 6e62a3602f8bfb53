package main

// metricDef names one reported metric and its unit. The two lists below are
// the ones BENCHMARK.json declares (metrics_test.go keeps them in step).
type metricDef struct {
	name string
	unit string
}

// endToEnd is reported by every workload with tracing off; each workload
// measures it on its own serving path (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rps", "1/s"},
	{"p50_us", "us"},
	{"mem_mb", "MiB"},
	{"stretch_mean", "ratio"},
	{"table_words_mean", "words"},
}

// perLayer is reported with tracing on. A layer a workload does not run
// reads 0.
var perLayer = []metricDef{
	{"routeserve.cpu_us_per_req", "us"},
	{"routeserve.sys_share", "ratio"},
	{"routeserve.write_syscalls_per_req", "count"},
	{"routeserve.read_syscalls_per_req", "count"},
	{"routeserve.bytes_in_per_req", "B"},
	{"routeserve.bytes_out_per_req", "B"},
	{"routeserve.ready_ms", "ms"},
	{"client.cpu_us_per_req", "us"},
	{"client.late_p99_us", "us"},
	{"serve.query_ns_per_route", "ns"},
	{"serve.dispatch_ns_per_route", "ns"},
	{"serve.allocs_per_route", "count"},
	{"serve.route_p99_ns", "ns"},
	{"simnet.route_ns", "ns"},
	{"simnet.hops_mean", "count"},
	{"simnet.hops_p99", "count"},
	{"simnet.header_words_max", "words"},
	{"scheme5.prepare_ns", "ns"},
	{"scheme5.next_ns.vicinity", "ns"},
	{"scheme5.next_ns.to_landmark", "ns"},
	{"scheme5.next_ns.sequence", "ns"},
	{"scheme5.next_ns.tree", "ns"},
	{"scheme5.hops_share.vicinity", "ratio"},
	{"scheme5.hops_share.to_landmark", "ratio"},
	{"scheme5.hops_share.sequence", "ratio"},
	{"scheme5.hops_share.tree", "ratio"},
	{"graph.portto_ns", "ns"},
	{"graph.endpoint_ns", "ns"},
	{"vicinity.lookup_ns", "ns"},
	{"build.scheme_s", "s"},
	{"graph.lazy_rows", "count"},
	{"wire.save_ms", "ms"},
	{"wire.map_ms", "ms"},
	{"wire.decode_ms", "ms"},
	{"wire.snapshot_mb", "MiB"},
	{"live.query_ns_clean", "ns"},
	{"live.route_ns", "ns"},
	{"live.apply_us", "us"},
	{"live.refresh_s_total", "s"},
	{"live.repair_s_total", "s"},
	{"live.rebuild_s_total", "s"},
	{"live.escalations", "count"},
	{"live.stale_share", "ratio"},
	{"live.fallback_share", "ratio"},
	{"live.detours_per_stale", "count"},
	{"audit.verified_per_s", "1/s"},
	{"audit.dropped_share", "ratio"},
	{"audit.bidi_us", "us"},
	{"trace.clock_ns", "ns"},
	{"trace.overhead_share", "ratio"},
}

// unitOf returns the unit of a declared metric, or "" for report-only ones.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return reportUnits[name]
}

// reportUnits gives units to the report-only lines some workloads print
// beside the declared metrics.
var reportUnits = map[string]string{
	"tcp_open_rate":   "1/s",
	"tcp_open_sent":   "count",
	"tcp_closed_reqs": "count",
	"p90_us":          "us",
	"p99_us":          "us",
	"churn_updates":   "count",
	"verified_pairs":  "count",
	"trace.spans":     "count",
	"trace.route_rps": "1/s",
}
