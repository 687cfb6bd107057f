package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lusail"
	"lusail/internal/endpoint"
)

// otlpSpan is one span as received by the fake collector, flattened
// with its resource's service.name.
type otlpSpan struct {
	Service string
	TraceID string
	SpanID  string
	Parent  string
	Name    string
}

// fakeCollector is an in-process OTLP/HTTP trace collector: it accepts
// POST /v1/traces with the OTLP JSON encoding and records every span.
type fakeCollector struct {
	mu    sync.Mutex
	spans []otlpSpan
	posts int
}

func (c *fakeCollector) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/traces" {
			http.Error(w, "unexpected request", http.StatusNotFound)
			return
		}
		var req struct {
			ResourceSpans []struct {
				Resource struct {
					Attributes []struct {
						Key   string `json:"key"`
						Value struct {
							StringValue string `json:"stringValue"`
						} `json:"value"`
					} `json:"attributes"`
				} `json:"resource"`
				ScopeSpans []struct {
					Spans []struct {
						TraceID      string `json:"traceId"`
						SpanID       string `json:"spanId"`
						ParentSpanID string `json:"parentSpanId"`
						Name         string `json:"name"`
					} `json:"spans"`
				} `json:"scopeSpans"`
			} `json:"resourceSpans"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		c.posts++
		for _, rs := range req.ResourceSpans {
			service := ""
			for _, a := range rs.Resource.Attributes {
				if a.Key == "service.name" {
					service = a.Value.StringValue
				}
			}
			for _, ss := range rs.ScopeSpans {
				for _, sp := range ss.Spans {
					c.spans = append(c.spans, otlpSpan{
						Service: service,
						TraceID: sp.TraceID,
						SpanID:  sp.SpanID,
						Parent:  sp.ParentSpanID,
						Name:    sp.Name,
					})
				}
			}
		}
		w.WriteHeader(http.StatusOK)
	})
}

// snapshot copies the recorded spans.
func (c *fakeCollector) snapshot() (spans []otlpSpan, posts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]otlpSpan(nil), c.spans...), c.posts
}

// services returns the distinct service names that contributed spans
// to the given trace.
func (c *fakeCollector) services(traceID string) map[string]bool {
	spans, _ := c.snapshot()
	out := map[string]bool{}
	for _, sp := range spans {
		if sp.TraceID == traceID {
			out[sp.Service] = true
		}
	}
	return out
}

// xmlQuery runs one query asking for XML results and returns the
// status, body, and the X-Lusail-Trace-Id trailer.
func xmlQuery(t *testing.T, base, query string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/sparql?query="+url.QueryEscape(query), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/sparql-results+xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body), resp.Trailer.Get("X-Lusail-Trace-Id")
}

// flushExporters drains every exporter into the collector so the
// assertions below see a deterministic span set.
func flushExporters(t *testing.T, exps ...*lusail.SpanExporter) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, e := range exps {
		if err := e.Flush(ctx); err != nil {
			t.Fatalf("exporter flush: %v", err)
		}
	}
}

// TestFederationStitchedTrace runs a two-process-style federation —
// the federator talking HTTP to endpoint servers, exactly as separate
// processes would — and asserts the collector receives ONE stitched
// trace: the endpoint processes' server-side spans carry the
// federator's trace ID, propagated via the W3C traceparent header.
func TestFederationStitchedTrace(t *testing.T) {
	col := &fakeCollector{}
	colSrv := httptest.NewServer(col.handler())
	defer colSrv.Close()

	// Endpoint "processes": each local store is mounted behind the
	// SPARQL protocol handler with its own span exporter, reachable
	// only over HTTP.
	var eps []lusail.Endpoint
	var epExporters []*lusail.SpanExporter
	for _, spec := range []struct{ name, doc string }{
		{"epA", "<http://ex/s0> <http://ex/p> \"a0\" .\n<http://ex/s1> <http://ex/p> \"a1\" .\n"},
		{"epB", "<http://ex/t0> <http://ex/q> \"b0\" .\n"},
	} {
		local := loadEndpoint(t, spec.name, spec.doc)
		exp := lusail.NewSpanExporter(lusail.ExporterConfig{
			Endpoint: colSrv.URL,
			Service:  spec.name,
			Logger:   quietLogger(),
		})
		defer exp.Shutdown(context.Background())
		h := lusail.ServeWithConfig(local, lusail.EndpointHandlerConfig{
			Logger:      quietLogger(),
			TraceSink:   exp,
			ServiceName: spec.name,
		})
		epSrv := httptest.NewServer(h)
		defer epSrv.Close()
		eps = append(eps, lusail.ConnectHTTP(spec.name, epSrv.URL))
		epExporters = append(epExporters, exp)
	}

	s := newServer(eps, serverConfig{
		Logger:       quietLogger(),
		OTLPEndpoint: colSrv.URL,
		ServiceName:  "lusail-server",
	})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	s.probe(context.Background())

	status, body, traceID := xmlQuery(t, ts.URL,
		`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`)
	if status != http.StatusOK {
		t.Fatalf("query status %d: %s", status, body)
	}
	if len(traceID) != 32 {
		t.Fatalf("X-Lusail-Trace-Id = %q, want a 32-hex trace ID", traceID)
	}

	flushExporters(t, append(epExporters, s.exporter)...)

	// One stitched trace: the federator's root trace ID appears in
	// spans exported by BOTH sides of the federation.
	got := col.services(traceID)
	if !got["lusail-server"] {
		t.Errorf("no federator spans for trace %s (services: %v)", traceID, got)
	}
	if !got["epA"] {
		t.Errorf("endpoint epA exported no server-side span joined to trace %s (services: %v)", traceID, got)
	}
	spans, posts := col.snapshot()
	if posts == 0 {
		t.Fatal("collector received no OTLP batches")
	}
	if st := s.exporter.Stats(); st.Batches == 0 || st.Exported == 0 {
		t.Errorf("exporter stats %+v, want batches and exported spans > 0", st)
	}
	// Every endpoint-side span must parent into the federator's tree,
	// not float as its own root.
	for _, sp := range spans {
		if sp.TraceID == traceID && sp.Service == "epA" && sp.Parent == "" {
			t.Errorf("endpoint span %s/%s has no parent: trace not stitched", sp.Name, sp.SpanID)
		}
	}

	// Inbound propagation: a caller-supplied traceparent joins this
	// server's spans to the caller's trace (federation-of-federations).
	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest(http.MethodGet,
		ts.URL+"/sparql?query="+url.QueryEscape(`SELECT ?s WHERE { ?s <http://ex/p> ?o }`), nil)
	req.Header.Set("Accept", "application/sparql-results+xml")
	req.Header.Set(lusail.TraceparentHeader, "00-"+callerTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Trailer.Get("X-Lusail-Trace-Id"); got != callerTrace {
		t.Errorf("joined trace ID = %q, want caller's %q", got, callerTrace)
	}
	flushExporters(t, s.exporter)
	if got := col.services(callerTrace); !got["lusail-server"] {
		t.Errorf("no spans exported under the caller's trace ID (services: %v)", got)
	}
}

// TestTailSamplingRetainsSlowDropsFast sets head sampling to 0 — no
// trace is head-sampled — and asserts the tail sampler still keeps a
// deliberately slowed query while the fast one is dropped.
func TestTailSamplingRetainsSlowDropsFast(t *testing.T) {
	col := &fakeCollector{}
	colSrv := httptest.NewServer(col.handler())
	defer colSrv.Close()

	ep := loadEndpoint(t, "epA",
		"<http://ex/s0> <http://ex/p> \"a0\" .\n<http://ex/s0> <http://ex/q> \"b0\" .\n")
	zero := 0.0
	s := newServer([]lusail.Endpoint{ep}, serverConfig{
		Logger:        quietLogger(),
		OTLPEndpoint:  colSrv.URL,
		TraceSample:   &zero,
		SlowThreshold: 50 * time.Millisecond,
	})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	s.probe(context.Background())

	// Fast query: in-process endpoint, no simulated network. Head says
	// drop (ratio 0), tail finds nothing keep-worthy.
	status, body, fastID := xmlQuery(t, ts.URL, `SELECT ?s WHERE { ?s <http://ex/p> ?o }`)
	if status != http.StatusOK {
		t.Fatalf("fast query status %d: %s", status, body)
	}

	// Slow query: a simulated 100ms RTT pushes the root span past the
	// tail sampler's threshold. A fresh predicate bypasses the ASK
	// cache so the endpoint round-trip really happens.
	ep.WithNetwork(lusail.NetworkProfile{RTT: 100 * time.Millisecond})
	status, body, slowID := xmlQuery(t, ts.URL, `SELECT ?s WHERE { ?s <http://ex/q> ?o }`)
	if status != http.StatusOK {
		t.Fatalf("slow query status %d: %s", status, body)
	}

	flushExporters(t, s.exporter)
	spans, _ := col.snapshot()
	var sawSlow, sawFast bool
	for _, sp := range spans {
		switch sp.TraceID {
		case slowID:
			sawSlow = true
		case fastID:
			sawFast = true
		}
	}
	if !sawSlow {
		t.Errorf("slow query's trace %s was not retained by the tail sampler", slowID)
	}
	if sawFast {
		t.Errorf("fast query's trace %s was exported despite sampling 0", fastID)
	}

	_, page := get(t, ts.URL+"/metrics")
	if got := metricValue(t, page, `lusail_trace_sampled_total{decision="kept_slow"}`); got != 1 {
		t.Errorf("kept_slow = %v, want 1", got)
	}
	if got := metricValue(t, page, `lusail_trace_sampled_total{decision="dropped"}`); got != 1 {
		t.Errorf("dropped = %v, want 1", got)
	}
}

// TestOpenMetricsExemplarsReferenceRetainedTrace asserts /metrics with
// the OpenMetrics Accept header carries exemplars whose trace_id is a
// trace the export chain retained — the link a metrics UI follows from
// a latency bucket to the stored trace.
func TestOpenMetricsExemplarsReferenceRetainedTrace(t *testing.T) {
	col := &fakeCollector{}
	colSrv := httptest.NewServer(col.handler())
	defer colSrv.Close()

	s := newServer(testEndpoints(t), serverConfig{
		Logger:       quietLogger(),
		OTLPEndpoint: colSrv.URL, // sample-all: every trace is retained
	})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	s.probe(context.Background())

	status, body, traceID := xmlQuery(t, ts.URL, `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`)
	if status != http.StatusOK {
		t.Fatalf("query status %d: %s", status, body)
	}
	flushExporters(t, s.exporter)
	if got := col.services(traceID); !got["lusail-server"] {
		t.Fatalf("trace %s was not exported; exemplars would dangle", traceID)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("Content-Type = %q, want openmetrics-text", ct)
	}
	text := string(page)
	if !strings.HasSuffix(strings.TrimRight(text, "\n"), "# EOF") {
		t.Errorf("OpenMetrics page missing # EOF terminator")
	}
	want := `# {trace_id="` + traceID + `"}`
	if !strings.Contains(text, want) {
		t.Errorf("/metrics has no exemplar %s:\n%s", want, text)
	}
	// The exemplar must hang off the query latency histogram.
	var onHistogram bool
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "lusail_query_duration_seconds_bucket") && strings.Contains(line, want) {
			onHistogram = true
		}
	}
	if !onHistogram {
		t.Errorf("no lusail_query_duration_seconds bucket carries the exemplar %s", want)
	}
}

// TestSLOBurnRateUnderFaults injects endpoint failures and asserts the
// availability burn rate, computed from /metrics the way the README's
// recording rule computes it, reads every query as failed: the summed
// lusail_query_errors_total equals lusail_queries_total.
func TestSLOBurnRateUnderFaults(t *testing.T) {
	eps := testEndpoints(t)
	down := endpoint.NewFaulty(eps[0], endpoint.FaultConfig{Down: true})
	s := newServer([]lusail.Endpoint{down, eps[1]}, serverConfig{Logger: quietLogger()})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	s.probe(context.Background())
	waitReady(t, ts)

	// Every query needs the downed endpoint, so every query fails and
	// burns availability budget.
	const queries = 4
	for i := 0; i < queries; i++ {
		status, _, _ := xmlQuery(t, ts.URL, `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`)
		if status != http.StatusInternalServerError {
			t.Fatalf("fault-injected query %d status %d, want 500", i, status)
		}
	}

	_, page := get(t, ts.URL+"/metrics")
	var errs float64
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "lusail_query_errors_total{") {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			errs += v
		}
	}
	total := metricValue(t, page, "lusail_queries_total")
	if total != queries || errs != total {
		t.Errorf("sum(lusail_query_errors_total) = %v, lusail_queries_total = %v, want both %d", errs, total, queries)
	}
	// The rule's 99% objective: burn = error ratio / 0.01.
	if burn := errs / total / 0.01; burn <= 1 {
		t.Errorf("availability burn rate = %v, want > 1 at a 100%% failure rate", burn)
	}
}
