package main

// metricSpec declares one reported metric. BENCHMARK.json carries the
// same declarations for the driver; bench_test.go checks they agree.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd is what a user of the served system sees, per workload,
// measured with harness tracing off. Each bound is at least three
// times the widest quartile spread any workload showed over ten seeds
// on the 2-core box the benchmark was built on (README, "Bounds").
var endToEnd = []metricSpec{
	{"query_p50_ms", "ms", "lower", 0.20},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"first_row_p50_ms", "ms", "lower", 0.20},
	{"throughput_qps", "1/s", "higher", 0.15},
	{"endpoint_requests_per_query", "count", "lower", 0.10},
	{"endpoint_kb_per_query", "KiB", "lower", 0.12},
	{"server_cpu_s_per_query", "s", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is one layer's work, time or ratio, from the traced run.
// Sources: T = harness spans around the in-process public API,
// R = replay of inputs captured in T through the layer's public
// function, S = delta of the child's /metrics over the served section,
// E = the harness's endpoint-server middleware.
var perLayer = []metricSpec{
	{name: "sparql.parse_us", unit: "us", better: "lower"},                 // R
	{name: "sparql.decode_ms", unit: "ms", better: "lower"},                // R
	{name: "sparql.decode_allocs_per_row", unit: "count", better: "lower"}, // R
	{name: "sparql.encode_ms", unit: "ms", better: "lower"},                // R
	{name: "federation.select_ms", unit: "ms", better: "lower"},            // T
	{name: "federation.ask_requests", unit: "count", better: "lower"},      // T
	{name: "core.analysis_ms", unit: "ms", better: "lower"},                // T
	{name: "core.lade.check_requests", unit: "count", better: "lower"},     // T
	{name: "core.cost.count_requests", unit: "count", better: "lower"},     // T
	{name: "core.sape.exec_ms", unit: "ms", better: "lower"},               // T
	{name: "core.sape.phase1_requests", unit: "count", better: "lower"},    // T
	{name: "core.sape.phase2_requests", unit: "count", better: "lower"},    // T
	{name: "core.sape.delayed_share", unit: "ratio", better: "higher"},     // T
	{name: "core.join_ms", unit: "ms", better: "lower"},                    // R
	{name: "core.join_allocs_per_row", unit: "count", better: "lower"},     // R
	{name: "endpoint.wait_ms", unit: "ms", better: "lower"},                // T
	{name: "endpoint.wait_share", unit: "ratio", better: "lower"},          // T
	{name: "core.self_ms", unit: "ms", better: "lower"},                    // T
	{name: "endpoint.request_p50_ms", unit: "ms", better: "lower"},         // T
	{name: "endpoint.retries", unit: "count", better: "lower"},             // S
	{name: "store.eval_ms", unit: "ms", better: "lower"},                   // E
	{name: "core.cache.subquery_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.cache.plan_hit_ratio", unit: "ratio", better: "higher"},
	{name: "stats.answer_ratio", unit: "ratio", better: "higher"},
	{name: "stats.lookup_fenced", unit: "count", better: "lower"},
	{name: "core.coherence.probes_per_query", unit: "count", better: "lower"}, // E
	{name: "core.coherence.fenced", unit: "count", better: "lower"},
	{name: "core.coherence.changes", unit: "count", better: "lower"},
	{name: "server.singleflight_collapsed_share", unit: "ratio", better: "higher"},
	{name: "server.shed", unit: "count", better: "lower"},
	{name: "server.peak_rss_mb", unit: "MiB", better: "lower"}, // child VmHWM
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
}

// metricValue is one measured metric as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// withUnits attaches each spec's unit to its measured value; a spec
// without a value is a bug in the caller and reported as such.
func withUnits(specs []metricSpec, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(specs))
	var missing []string
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			missing = append(missing, s.name)
			continue
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return out, missing
}
