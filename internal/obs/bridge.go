package obs

import (
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/stats"
	"lusail/internal/trace"
)

// Bridges project the engine's existing in-process instrumentation
// (PR 1 fault counters, PR 2 latency histograms and stats) into
// scrape-time metric families. Each bridge registers a collector: the
// snapshot function is invoked on every scrape, so the exposed values
// are always live without a background sampler.

// RegisterEndpointStats exposes per-endpoint traffic statistics:
// request/row/byte/error counters, fault-recovery counters, and —
// when the federation is instrumented — the client-side latency
// histogram projected into cumulative Prometheus buckets.
func RegisterEndpointStats(r *Registry, snapshot func() []endpoint.EndpointStat) {
	r.RegisterCollector(func() []Family {
		stats := snapshot()
		counter := func(name, help string, value func(endpoint.Stats) float64) Family {
			f := Family{Name: name, Help: help, Kind: "counter"}
			for _, st := range stats {
				f.Samples = append(f.Samples, Sample{
					Labels: []Label{L("endpoint", st.Name)},
					Value:  value(st.Stats),
				})
			}
			return f
		}
		fams := []Family{
			counter("lusail_endpoint_requests_total", "Remote requests sent to the endpoint.",
				func(s endpoint.Stats) float64 { return float64(s.Requests) }),
			counter("lusail_endpoint_rows_total", "Solution rows shipped back by the endpoint.",
				func(s endpoint.Stats) float64 { return float64(s.Rows) }),
			counter("lusail_endpoint_bytes_total", "Approximate wire bytes shipped back by the endpoint.",
				func(s endpoint.Stats) float64 { return float64(s.Bytes) }),
			counter("lusail_endpoint_errors_total", "Failed endpoint calls (after retries).",
				func(s endpoint.Stats) float64 { return float64(s.Errors) }),
			counter("lusail_endpoint_retries_total", "Retry attempts issued by the endpoint client.",
				func(s endpoint.Stats) float64 { return float64(s.Retries) }),
			counter("lusail_endpoint_breaker_rejections_total", "Requests rejected fast by an open circuit breaker.",
				func(s endpoint.Stats) float64 { return float64(s.BreakerOpens) }),
			counter("lusail_endpoint_timeouts_total", "Attempts that hit the per-request timeout.",
				func(s endpoint.Stats) float64 { return float64(s.Timeouts) }),
		}

		hist := Family{
			Name: "lusail_endpoint_latency_seconds",
			Help: "Client-side endpoint call latency, including retries and backoff.",
			Kind: "histogram",
		}
		for _, st := range stats {
			if st.Stats.Latency.Count() > 0 {
				hist.Samples = append(hist.Samples, histSample([]Label{L("endpoint", st.Name)}, st.Stats.Latency))
			}
		}
		// An empty family is still exposed (TYPE line only) so scrapers
		// see the series exists before traffic arrives.
		return append(fams, hist)
	})
}

// RegisterBreakers exposes per-endpoint circuit-breaker state as a
// gauge: 0 closed, 1 open, 2 half-open (matching
// endpoint.BreakerState), plus a 0/1 open indicator readiness
// dashboards can alert on directly.
func RegisterBreakers(r *Registry, snapshot func() []endpoint.BreakerStatus) {
	r.RegisterCollector(func() []Family {
		states := snapshot()
		state := Family{Name: "lusail_breaker_state",
			Help: "Circuit-breaker state per endpoint (0 closed, 1 open, 2 half-open).", Kind: "gauge"}
		open := Family{Name: "lusail_breaker_open",
			Help: "1 while the endpoint's circuit breaker is open.", Kind: "gauge"}
		for _, b := range states {
			labels := []Label{L("endpoint", b.Name)}
			state.Samples = append(state.Samples, Sample{Labels: labels, Value: float64(b.State)})
			var v float64
			if b.State == endpoint.BreakerOpen {
				v = 1
			}
			open.Samples = append(open.Samples, Sample{Labels: labels, Value: v})
		}
		return []Family{state, open}
	})
}

// RegisterCaches exposes the engine's cache counters — the ASK
// source-selection, LADE check, COUNT statistics, and subquery-result
// caches — as one set of families labeled by cache name. Hits count
// successful reuse only; staleness (TTL expiry on access) and LRU
// evictions are non-zero only for the bounded subquery cache.
func RegisterCaches(r *Registry, snapshot func() []core.CacheStatEntry) {
	r.RegisterCollector(func() []Family {
		entries := snapshot()
		counter := func(name, help string, value func(core.CacheStats) float64,
			exOf func(core.CacheStatEntry) *trace.Exemplar) Family {
			f := Family{Name: name, Help: help, Kind: "counter"}
			for _, e := range entries {
				s := Sample{
					Labels: []Label{L("cache", e.Name)},
					Value:  value(e.Stats),
				}
				// The latest sampled traced query that hit or missed
				// annotates the counter's current value.
				if exOf != nil {
					if ex := exOf(e); ex != nil {
						s.Exemplar = &trace.Exemplar{TraceID: ex.TraceID, Value: s.Value, At: ex.At}
					}
				}
				f.Samples = append(f.Samples, s)
			}
			return f
		}
		fams := []Family{
			counter("lusail_cache_hits_total", "Cache lookups served from a retained entry (successful reuse only).",
				func(s core.CacheStats) float64 { return float64(s.Hits) },
				func(e core.CacheStatEntry) *trace.Exemplar { return e.HitExemplar }),
			counter("lusail_cache_misses_total", "Cache lookups that required remote work.",
				func(s core.CacheStats) float64 { return float64(s.Misses) },
				func(e core.CacheStatEntry) *trace.Exemplar { return e.MissExemplar }),
			counter("lusail_cache_evictions_total", "Entries evicted past the LRU bound.",
				func(s core.CacheStats) float64 { return float64(s.Evictions) }, nil),
			counter("lusail_cache_stale_total", "Entries dropped on access because their TTL expired.",
				func(s core.CacheStats) float64 { return float64(s.Expirations) }, nil),
		}
		gauge := Family{Name: "lusail_cache_entries",
			Help: "Entries currently retained per cache.", Kind: "gauge"}
		for _, e := range entries {
			gauge.Samples = append(gauge.Samples, Sample{
				Labels: []Label{L("cache", e.Name)},
				Value:  float64(e.Stats.Entries),
			})
		}
		return append(fams, gauge)
	})
}

// RegisterCoherence exposes the cache-coherence fence: each endpoint's
// tracked monotonic data version (lusail_endpoint_data_version), the
// probe/change counters, and the subquery-cache entries the fence
// rejected.
func RegisterCoherence(r *Registry, snapshot func() federation.CoherenceStats) {
	r.RegisterCollector(func() []Family {
		st := snapshot()
		version := Family{Name: "lusail_endpoint_data_version",
			Help: "Monotonic data version tracked per endpoint (0 until first probe; absent series for endpoints exposing no version).",
			Kind: "gauge"}
		for _, ep := range st.Endpoints {
			if !ep.Versioned {
				continue
			}
			version.Samples = append(version.Samples, Sample{
				Labels: []Label{L("endpoint", ep.Name)},
				Value:  float64(ep.Version),
			})
		}
		single := func(name, help, kind string, v int64) Family {
			return Family{Name: name, Help: help, Kind: kind,
				Samples: []Sample{{Value: float64(v)}}}
		}
		return []Family{
			version,
			single("lusail_coherence_probes_total",
				"Data-version probes issued by the coherence fence.", "counter", st.Probes),
			single("lusail_coherence_probe_errors_total",
				"Data-version probes that failed (endpoint unreachable).", "counter", st.ProbeErrors),
			single("lusail_coherence_changes_total",
				"Endpoint data-version changes detected by the fence.", "counter", st.Changes),
			single("lusail_cache_fenced_total",
				"Subquery-cache entries rejected at lookup because a source endpoint was invalidated since.", "counter", st.Fenced),
		}
	})
}

// RegisterStats exposes the offline statistics service: held
// summaries, lookup outcomes (hit / miss / fenced), harvest lifecycle
// counters, the plan-time questions answered from summaries instead of
// probes (labeled by kind), and the calibration loop's state.
func RegisterStats(r *Registry, snapshot func() stats.ServiceStats) {
	r.RegisterCollector(func() []Family {
		st := snapshot()
		single := func(name, help, kind string, v float64) Family {
			return Family{Name: name, Help: help, Kind: kind,
				Samples: []Sample{{Value: v}}}
		}
		answered := Family{Name: "lusail_stats_answers_total",
			Help: "Plan-time questions answered from statistics summaries instead of endpoint probes, by question kind.",
			Kind: "counter",
			Samples: []Sample{
				{Labels: []Label{L("kind", "cardinality")}, Value: float64(st.CardAnswers)},
				{Labels: []Label{L("kind", "ask")}, Value: float64(st.AskAnswers)},
				{Labels: []Label{L("kind", "check")}, Value: float64(st.CheckAnswers)},
				{Labels: []Label{L("kind", "pair")}, Value: float64(st.PairAnswers)},
			}}
		return []Family{
			single("lusail_stats_summaries",
				"Endpoint statistics summaries currently held.", "gauge", float64(st.Summaries)),
			single("lusail_stats_lookup_hits_total",
				"Summary lookups served.", "counter", float64(st.Hits)),
			single("lusail_stats_lookup_misses_total",
				"Summary lookups with no summary held.", "counter", float64(st.Misses)),
			single("lusail_stats_lookup_fenced_total",
				"Summary lookups refused because the endpoint's data version moved.", "counter", float64(st.Fenced)),
			single("lusail_stats_refreshes_total",
				"Harvest attempts started.", "counter", float64(st.Refreshes)),
			single("lusail_stats_refresh_errors_total",
				"Harvest attempts that failed.", "counter", float64(st.RefreshErrors)),
			single("lusail_stats_discards_total",
				"Harvests discarded because the endpoint churned or was invalidated mid-harvest.", "counter", float64(st.Discards)),
			single("lusail_stats_harvest_queries_total",
				"Aggregation queries issued by harvests.", "counter", float64(st.HarvestQueries)),
			answered,
			single("lusail_stats_calibration_keys",
				"Learned (endpoint, predicate) calibration factors.", "gauge", float64(st.CalibrationKeys)),
			single("lusail_stats_calibration_observations_total",
				"Estimated-vs-actual feedback samples applied to calibration.", "counter", float64(st.Observations)),
		}
	})
}

// RegisterInFlight exposes the federation's live pool depth: remote
// requests currently inside the engine's endpoint clients.
func RegisterInFlight(r *Registry, depth func() int64) {
	r.RegisterCollector(func() []Family {
		return []Family{{
			Name: "lusail_federation_inflight_requests",
			Help: "Remote requests currently on the wire (federation pool depth).",
			Kind: "gauge",
			Samples: []Sample{
				{Value: float64(depth())},
			},
		}}
	})
}
