package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/trace"
)

// traceID parses a 32-hex-digit trace ID fixture.
func traceID(t *testing.T, hex string) trace.TraceID {
	t.Helper()
	sc, ok := trace.ParseTraceparent("00-" + hex + "-00f067aa0ba902b7-01")
	if !ok {
		t.Fatalf("bad trace ID fixture %q", hex)
	}
	return sc.TraceID
}

// The endpoint-stats bridge projects counters and the client-side
// latency histogram into cumulative Prometheus buckets, with bucket
// exemplars where the endpoint client pinned a traced call.
func TestRegisterEndpointStatsProjection(t *testing.T) {
	lat := endpoint.NewLatencyHistogram()
	lat.Observe((80 * time.Microsecond).Seconds(), &trace.Exemplar{ // le=0.0001 bucket
		TraceID: traceID(t, "0af7651916cd43dd8448eb211c80319c"),
		Value:   (80 * time.Microsecond).Seconds(),
		At:      time.Unix(1700000000, 0),
	})
	lat.Observe((300 * time.Millisecond).Seconds(), nil) // le=0.5 bucket
	lat.Observe(time.Hour.Seconds(), &trace.Exemplar{    // +Inf overflow
		TraceID: traceID(t, "1af7651916cd43dd8448eb211c80319c"),
		Value:   time.Hour.Seconds(),
		At:      time.Unix(1700000001, 0),
	})

	r := NewRegistry()
	RegisterEndpointStats(r, func() []endpoint.EndpointStat {
		return []endpoint.EndpointStat{{
			Name: "dbpedia",
			Stats: endpoint.Stats{
				Requests: 10, Rows: 100, Bytes: 4096, Errors: 2,
				Retries: 3, BreakerOpens: 1, Timeouts: 1,
				Latency: lat.Snapshot(),
			},
		}}
	})

	out := expo(t, r)
	for _, want := range []string{
		`lusail_endpoint_requests_total{endpoint="dbpedia"} 10`,
		`lusail_endpoint_rows_total{endpoint="dbpedia"} 100`,
		`lusail_endpoint_bytes_total{endpoint="dbpedia"} 4096`,
		`lusail_endpoint_errors_total{endpoint="dbpedia"} 2`,
		`lusail_endpoint_retries_total{endpoint="dbpedia"} 3`,
		`lusail_endpoint_breaker_rejections_total{endpoint="dbpedia"} 1`,
		`lusail_endpoint_latency_seconds_bucket{endpoint="dbpedia",le="0.0001"} 1`,
		`lusail_endpoint_latency_seconds_bucket{endpoint="dbpedia",le="+Inf"} 3`,
		`lusail_endpoint_latency_seconds_count{endpoint="dbpedia"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// OpenMetrics exposition attaches the pinned exemplars to their
	// buckets, including the +Inf overflow slot.
	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	om := b.String()
	for _, want := range []string{
		`le="0.0001"} 1 # {trace_id="0af7651916cd43dd8448eb211c80319c"} 8e-05`,
		`le="+Inf"} 3 # {trace_id="1af7651916cd43dd8448eb211c80319c"} 3600`,
	} {
		if !strings.Contains(om, want) {
			t.Errorf("OpenMetrics exposition missing %q:\n%s", want, om)
		}
	}
}

// The breaker bridge exposes the tri-state gauge plus the 0/1 open
// indicator, reflecting snapshot changes between scrapes.
func TestRegisterBreakersStates(t *testing.T) {
	var state atomic.Int64
	r := NewRegistry()
	RegisterBreakers(r, func() []endpoint.BreakerStatus {
		return []endpoint.BreakerStatus{
			{Name: "a", State: endpoint.BreakerState(state.Load())},
			{Name: "b", State: endpoint.BreakerClosed},
		}
	})

	out := expo(t, r)
	for _, want := range []string{
		`lusail_breaker_state{endpoint="a"} 0`,
		`lusail_breaker_open{endpoint="a"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("closed exposition missing %q:\n%s", want, out)
		}
	}

	state.Store(int64(endpoint.BreakerOpen))
	out = expo(t, r)
	for _, want := range []string{
		`lusail_breaker_state{endpoint="a"} 1`,
		`lusail_breaker_open{endpoint="a"} 1`,
		`lusail_breaker_open{endpoint="b"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("open exposition missing %q:\n%s", want, out)
		}
	}

	state.Store(int64(endpoint.BreakerHalfOpen))
	out = expo(t, r)
	if !strings.Contains(out, `lusail_breaker_state{endpoint="a"} 2`) {
		t.Errorf("half-open exposition wrong:\n%s", out)
	}
	if !strings.Contains(out, `lusail_breaker_open{endpoint="a"} 0`) {
		t.Errorf("half-open must not read as open:\n%s", out)
	}
}

// The cache bridge labels every engine cache and attaches hit/miss
// exemplars where the subquery cache recorded traced lookups.
func TestRegisterCachesExemplars(t *testing.T) {
	r := NewRegistry()
	RegisterCaches(r, func() []core.CacheStatEntry {
		return []core.CacheStatEntry{
			{Name: "ask", Stats: core.CacheStats{Hits: 5, Misses: 2, Entries: 3}},
			{Name: "subquery",
				Stats:        core.CacheStats{Hits: 7, Misses: 4, Evictions: 1, Expirations: 2, Entries: 6},
				HitExemplar:  &trace.Exemplar{TraceID: traceID(t, "2af7651916cd43dd8448eb211c80319c"), At: time.Unix(1700000002, 0)},
				MissExemplar: &trace.Exemplar{TraceID: traceID(t, "3af7651916cd43dd8448eb211c80319c"), At: time.Unix(1700000003, 0)},
			},
		}
	})

	out := expo(t, r)
	for _, want := range []string{
		`lusail_cache_hits_total{cache="ask"} 5`,
		`lusail_cache_hits_total{cache="subquery"} 7`,
		`lusail_cache_misses_total{cache="subquery"} 4`,
		`lusail_cache_evictions_total{cache="subquery"} 1`,
		`lusail_cache_stale_total{cache="subquery"} 2`,
		`lusail_cache_entries{cache="subquery"} 6`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	om := b.String()
	for _, want := range []string{
		`lusail_cache_hits_total{cache="subquery"} 7 # {trace_id="2af7651916cd43dd8448eb211c80319c"} 7`,
		`lusail_cache_misses_total{cache="subquery"} 4 # {trace_id="3af7651916cd43dd8448eb211c80319c"} 4`,
	} {
		if !strings.Contains(om, want) {
			t.Errorf("OpenMetrics exposition missing %q:\n%s", want, om)
		}
	}
	if strings.Contains(om, `lusail_cache_hits_total{cache="ask"} 5 # `) {
		t.Errorf("ask cache has no exemplar and must not render one:\n%s", om)
	}
}

// The in-flight bridge reads the pool depth live at each scrape, and
// every bridge survives concurrent scrapes while its snapshot values
// move underneath (the collector path must not race).
func TestBridgesConcurrentScrape(t *testing.T) {
	var depth atomic.Int64
	var state atomic.Int64
	var hits atomic.Int64

	r := NewRegistry()
	RegisterInFlight(r, depth.Load)
	RegisterBreakers(r, func() []endpoint.BreakerStatus {
		return []endpoint.BreakerStatus{{Name: "a", State: endpoint.BreakerState(state.Load())}}
	})
	RegisterCaches(r, func() []core.CacheStatEntry {
		return []core.CacheStatEntry{{Name: "subquery",
			Stats:       core.CacheStats{Hits: hits.Load()},
			HitExemplar: &trace.Exemplar{TraceID: traceID(t, "4af7651916cd43dd8448eb211c80319c"), At: time.Unix(1700000004, 0)},
		}}
	})
	RegisterEndpointStats(r, func() []endpoint.EndpointStat {
		lat := endpoint.NewLatencyHistogram()
		lat.Observe((time.Duration(hits.Load()) * time.Millisecond).Seconds(), nil)
		return []endpoint.EndpointStat{{Name: "a", Stats: endpoint.Stats{Requests: depth.Load(), Latency: lat.Snapshot()}}}
	})

	depth.Store(3)
	out := expo(t, r)
	if !strings.Contains(out, "lusail_federation_inflight_requests 3") {
		t.Errorf("in-flight gauge missing:\n%s", out)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var b strings.Builder
				if err := r.WriteText(&b); err != nil {
					t.Error(err)
					return
				}
				if err := r.WriteOpenMetrics(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				depth.Add(1)
				state.Store(int64(j % 3))
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
}

// The coherence bridge exposes the per-endpoint data-version gauge
// (versioned endpoints only) and the fence's probe/staleness counters.
func TestRegisterCoherenceProjection(t *testing.T) {
	r := NewRegistry()
	RegisterCoherence(r, func() federation.CoherenceStats {
		return federation.CoherenceStats{
			Endpoints: []federation.EndpointVersion{
				{Name: "EP1", Version: 7, Versioned: true},
				{Name: "EP2", Version: 3, Versioned: true},
				{Name: "opaque", Versioned: false}, // no series
			},
			Probes:      40,
			ProbeErrors: 2,
			Changes:     5,
			Fenced:      4,
		}
	})

	out := expo(t, r)
	for _, want := range []string{
		`lusail_endpoint_data_version{endpoint="EP1"} 7`,
		`lusail_endpoint_data_version{endpoint="EP2"} 3`,
		`lusail_coherence_probes_total 40`,
		`lusail_coherence_probe_errors_total 2`,
		`lusail_coherence_changes_total 5`,
		`lusail_cache_fenced_total 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `lusail_endpoint_data_version{endpoint="opaque"}`) {
		t.Error("version-less endpoint must expose no data-version series")
	}
}
