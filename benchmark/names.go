package main

// Every metric the benchmark emits, by name and unit. BENCHMARK.json lists
// the same names (plus direction and regression bound); benchmark_test.go
// pins that the two agree.

type metricDef struct{ Name, Unit string }

// workloadNames are the four workloads, in the order the suite runs them.
var workloadNames = []string{"explore", "hot-embedded", "hot-wire", "churn"}

// classNames are the query classes shared by all workloads.
var classNames = []string{"agg-exact", "agg-subsumed", "groupby", "join", "nested", "rows"}

const (
	clsExact = iota
	clsSubsumed
	clsGroupBy
	clsJoin
	clsNested
	clsRows
	numClasses
)

// endToEnd is reported by every workload with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"hit_lat_p50_us", "us"},
	{"hit_lat_p95_us", "us"},
	{"miss_lat_mean_ms", "ms"},
	{"speedup_vs_nocache", "x"},
	{"miss_overhead_ratio", "x"},
	{"cpu_us_per_query", "us"},
	{"rss_peak_mb", "MB"},
}

// traceLayers are the layers a traced query's wall time is attributed to.
var traceLayers = []string{"sqlparse", "planner", "exec", "rawscan", "build", "store", "wire", "client", "transport"}

// perLayer is reported by every workload with --trace 1.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Layer probes: public layer functions timed on this run's data.
		{"sqlparse.parse_ns", "ns"},
		{"engine.prepare_ns", "ns"},
		{"engine.explain_ns", "ns"},
		{"cache.rewrite_exact_ns", "ns"},
		{"cache.rewrite_subsumed_ns", "ns"},
		{"csvio.firstscan_mb_s", "MB/s"},
		{"csvio.mapped_mb_s", "MB/s"},
		{"csvio.pushdown_mb_s", "MB/s"},
		{"csvio.tail_mb_s", "MB/s"},
		{"jsonio.firstscan_mb_s", "MB/s"},
		{"jsonio.mapped_mb_s", "MB/s"},
		{"jsonio.pushdown_mb_s", "MB/s"},
		{"jsonio.nested_mb_s", "MB/s"},
		{"expr.pushdown_extract_ns", "ns"},
		{"expr.compile_pred_ns", "ns"},
		{"store.build_rows_s.columnar", "rows/s"},
		{"store.build_rows_s.parquet", "rows/s"},
		{"store.rcs1_write_mb_s", "MB/s"},
		{"store.rcs1_read_mb_s", "MB/s"},
		{"store.extend_rows_s", "rows/s"},
		{"wire.encode_resp_ns.scalar", "ns"},
		{"wire.encode_resp_ns.rows4k", "ns"},
		{"wire.parse_resp_ns.scalar", "ns"},
		{"wire.parse_resp_ns.rows4k", "ns"},
		{"wire.req_roundtrip_ns", "ns"},
		{"client.ping_rtt_us", "us"},
		{"client.decode_ns", "ns"},
		{"freshness.check_ns", "ns"},
		// Counters and ratios of the workload's own engine.
		{"cache.exact_hits", "count"},
		{"cache.subsumed_hits", "count"},
		{"cache.misses", "count"},
		{"cache.inserted", "count"},
		{"cache.evictions", "count"},
		{"cache.lazy_upgrades", "count"},
		{"cache.layout_switches", "count"},
		{"cache.spills", "count"},
		{"cache.disk_hits", "count"},
		{"cache.spill_drops", "count"},
		{"cache.tail_extensions", "count"},
		{"cache.stale_invalidations", "count"},
		{"cache.tail_bytes_scanned", "bytes"},
		{"cache.resident_mb", "MB"},
		{"cache.hit_ratio", "ratio"},
		{"cache.reuse_ratio", "ratio"},
		{"cache.build_share", "ratio"},
		{"csvio.raw_scans", "count"},
		{"jsonio.raw_scans", "count"},
		{"pushdown.skipped_ratio", "ratio"},
		{"exec.cachescan_share", "ratio"},
		{"exec.vectorized_ratio", "ratio"},
		{"exec.vecjoin_ratio", "ratio"},
		{"server.requests", "count"},
		{"server.errors", "count"},
		{"go.allocs_per_query", "count"},
		{"go.alloc_kb_per_query", "KB"},
		{"go.gc_pause_ms", "ms"},
		{"lat_p99_us", "us"},
		{"trace_overhead_ratio", "ratio"},
		{"trace.unattributed_share", "ratio"},
		{"machine.speed_factor", "ratio"},
	}
	for _, c := range classNames {
		defs = append(defs,
			metricDef{"exec.run_ns." + c, "ns"},
			metricDef{"class." + c + ".lat_p50_us", "us"},
			metricDef{"wire_tax_us." + c, "us"})
	}
	for _, l := range traceLayers {
		defs = append(defs, metricDef{"trace.share." + l, "ratio"})
	}
	return defs
}
