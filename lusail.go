// Package lusail is a federated SPARQL query processor over
// decentralized RDF graphs, reproducing "Query Optimizations over
// Decentralized RDF Graphs" (ICDE 2017). Queries are optimized with
// locality-aware decomposition (LADE) at compile time and
// selectivity-aware parallel execution (SAPE) at run time.
//
// Quick start:
//
//	ep1, _ := lusail.LoadEndpoint("uni1", strings.NewReader(ntriples1))
//	ep2, _ := lusail.LoadEndpoint("uni2", strings.NewReader(ntriples2))
//	fed := lusail.New([]lusail.Endpoint{ep1, ep2})
//	res, err := fed.Query(ctx, `SELECT ?s WHERE { ?s <http://ex/p> ?o }`)
//
// Endpoints may be in-process (LoadEndpoint), optionally with a
// simulated network profile, or remote SPARQL endpoints over HTTP
// (ConnectHTTP). Serve exposes an in-process endpoint over the SPARQL
// protocol so federations can span real processes.
package lusail

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"lusail/internal/baseline/fedx"
	"lusail/internal/baseline/hibiscus"
	"lusail/internal/baseline/splendid"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/obs"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/stats"
	"lusail/internal/store"
	"lusail/internal/trace"
)

// Endpoint is one SPARQL endpoint of the decentralized graph.
type Endpoint = endpoint.Endpoint

// Results is a SPARQL result set (solution rows, or a boolean for ASK
// queries).
type Results = sparql.Results

// Binding is one solution row.
type Binding = sparql.Binding

// Var is a SPARQL variable name.
type Var = sparql.Var

// Metrics profiles one query execution: per-phase durations and remote
// request counts.
type Metrics = core.Metrics

// NetworkProfile simulates the link between the federator and an
// in-process endpoint (round-trip latency plus bandwidth).
type NetworkProfile = endpoint.NetworkProfile

// Predefined network profiles.
var (
	// LAN approximates a 1 Gb local cluster.
	LAN = endpoint.LANProfile
	// WAN approximates cross-region public-cloud links.
	WAN = endpoint.WANProfile
)

// Option configures a Federation.
type Option func(*core.Config)

// WithSubqueryCache retains phase-1 subquery results in a persistent
// cross-query cache of at most entries results (LRU eviction past the
// bound), each valid for ttl (0 = no expiry). Every query shares the
// one cache, so repeat traffic reuses earlier queries' subquery results
// without re-asking the endpoints, and concurrent queries that
// decompose to the same subquery execute it once (the cache is
// single-flight): run a workload's queries concurrently on a federation
// built with this option for multi-query optimization. Results are keyed on the canonicalized subquery text
// plus the stable names of its source endpoints, and fenced by the same
// per-endpoint generations as the plan knowledge: a result is not
// served once one of its sources has been invalidated — by a data
// version change seen at a query's start, or by InvalidateCaches /
// InvalidateEndpointCaches.
func WithSubqueryCache(entries int, ttl time.Duration) Option {
	return func(c *core.Config) {
		c.SubqueryCacheSize = entries
		c.SubqueryCacheTTL = ttl
	}
}

// StatisticsConfig tunes the offline statistics service. Its one
// setting arms the self-tuning calibration loop (Calibrate: every
// execution's estimated-vs-actual subquery cardinalities feed
// per-endpoint, per-predicate correction factors applied to future
// estimates, so the cost model's q-error declines as the federation
// serves traffic). The zero value leaves calibration off.
type StatisticsConfig = stats.Config

// StatisticsStats snapshots the statistics service's counters:
// summaries held, lookup hit/miss/fenced counts, harvest lifecycle,
// plan questions answered per kind, and calibration state.
type StatisticsStats = stats.ServiceStats

// WithStatistics enables the offline statistics service: per-endpoint
// predicate and characteristic-set cardinalities plus predicate-pair
// join summaries, harvested via paged aggregation queries and
// versioned against each endpoint's data version. The cost model,
// source selection, and LADE locality checks consult the summaries
// first and fall back to live probes only on miss, so a warmed
// federation plans queries without any endpoint round trips. Call
// RefreshStatistics to harvest; data churn fences exactly the changed
// endpoint's summary.
func WithStatistics(cfg StatisticsConfig) Option {
	return func(c *core.Config) { c.Statistics = &cfg }
}

// RefreshStatistics harvests (or re-harvests) every endpoint's
// statistics summary. A no-op unless the federation was built
// WithStatistics.
func (f *Federation) RefreshStatistics(ctx context.Context) error {
	return f.engine.RefreshStats(ctx)
}

// StatisticsStats snapshots the statistics service's counters
// (zero-valued when the service is off).
func (f *Federation) StatisticsStats() StatisticsStats { return f.engine.StatsSnapshot() }

// DegradePolicy selects how a query responds to losing an endpoint
// mid-execution (retries exhausted, circuit open, request rejected).
type DegradePolicy = endpoint.DegradePolicy

// Degradation policies.
const (
	// DegradeFail fails the whole query on the first terminal endpoint
	// error (the default, and the historical behavior).
	DegradeFail = endpoint.DegradeFail
	// DegradeSkipEndpoint drops a failing endpoint's contribution and
	// keeps executing as long as every required subquery still has a
	// live source.
	DegradeSkipEndpoint = endpoint.DegradeSkipEndpoint
	// DegradeBestEffort never fails on endpoint loss or budget expiry:
	// it returns whatever the surviving endpoints can answer, annotated
	// with a Completeness report.
	DegradeBestEffort = endpoint.DegradeBestEffort
)

// ParseDegradePolicy parses "fail", "skip-endpoint", or "best-effort".
func ParseDegradePolicy(s string) (DegradePolicy, error) {
	return endpoint.ParseDegradePolicy(s)
}

// Completeness annotates a degraded query's results: Complete is false
// when contributions were dropped, and Dropped says which and why.
// Results.Completeness is nil unless degradation or a query budget was
// configured.
type Completeness = sparql.Completeness

// Dropped is one contribution a degraded execution gave up on.
type Dropped = sparql.Dropped

// WithDegradation selects the federation's degradation policy. Under
// DegradeSkipEndpoint or DegradeBestEffort, queries that lose an
// endpoint return partial results annotated via Results.Completeness
// instead of failing.
func WithDegradation(p DegradePolicy) Option {
	return func(c *core.Config) { c.Degradation = p }
}

// WithQueryBudget bounds each query's wall-clock time. When the budget
// expires, a DegradeBestEffort federation returns what it has computed
// so far (skipping remaining delayed subqueries); other policies fail
// the query with context.DeadlineExceeded.
func WithQueryBudget(d time.Duration) Option {
	return func(c *core.Config) { c.QueryBudget = d }
}

// ResilienceConfig tunes the per-endpoint fault-tolerance layer:
// per-attempt timeouts, bounded retries with jittered exponential
// backoff, and a circuit breaker.
type ResilienceConfig = endpoint.ResilienceConfig

// DefaultResilience returns production-shaped resilience defaults.
func DefaultResilience() ResilienceConfig { return endpoint.DefaultResilience() }

// WithResilience gives every endpoint's client its own retry loop and
// circuit breaker, configured by cfg. Breaker states become observable
// through BreakerStates, which readiness probes consume.
func WithResilience(cfg ResilienceConfig) Option {
	return func(c *core.Config) { c.Resilience = &cfg }
}

// QueryLog is the structured query log: correlation IDs, slog
// start/finish events, bounded recent/slow ring buffers (slow queries
// keep their rendered span tree), and query-level metric families.
type QueryLog = obs.QueryLog

// QueryLogConfig tunes a QueryLog.
type QueryLogConfig = obs.QueryLogConfig

// QueryRecord is one completed query as kept in the QueryLog rings.
type QueryRecord = obs.QueryRecord

// NewQueryLog builds a QueryLog.
func NewQueryLog(cfg QueryLogConfig) *QueryLog { return obs.NewQueryLog(cfg) }

// MetricsRegistry collects counters, gauges, and histograms and
// exposes them in the Prometheus text format via its Handler.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithObservability attaches ql to the federation: every query gets a
// correlation ID and a start/finish event pair, and slow queries are
// captured with their span tree.
func WithObservability(ql *QueryLog) Option {
	return func(c *core.Config) { c.QueryLog = ql }
}

// Federation is a Lusail engine over a fixed set of endpoints.
type Federation struct {
	engine    *core.Lusail
	endpoints []Endpoint
}

// New builds a federation over the endpoints.
func New(eps []Endpoint, opts ...Option) *Federation {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	return &Federation{engine: core.New(eps, cfg), endpoints: eps}
}

// Query runs a SPARQL SELECT or ASK query against the federation and
// collects its rows: QueryStreamTraced with a nil sink.
func (f *Federation) Query(ctx context.Context, query string) (*Results, error) {
	res, _, _, err := f.QueryStreamTraced(ctx, query, nil)
	return res, err
}

// Trace is a query execution's span tree: source selection, GJV
// checks, COUNT estimation, phase-1 subqueries, bound phase-2 blocks,
// hash joins, and left joins, each with wall-clock duration and
// attributes (rows, requests, retries).
type Trace = trace.Trace

// Span is one node of a Trace.
type Span = trace.Span

// QueryStreamTraced is the federation's one query call. It runs a
// SPARQL SELECT or ASK query with pipelined streaming execution: result
// rows are delivered through onChunk in bounded chunks as they are
// produced — the first rows typically arrive while slower endpoints are
// still answering — instead of materializing the whole result first.
// onChunk receives the projected header (identical on every call) and a
// chunk of rows; returning an error aborts the query. The returned
// Results summary carries the header and the delivered row count
// (Len()), with empty Rows. With a nil onChunk the rows are collected
// into the returned Results instead.
//
// Solution modifiers that need the whole result before the first row
// (DISTINCT, COUNT, ORDER BY) hold the stream back and deliver their
// rows once it has drained; an ASK query delivers no rows and returns
// its boolean.
//
// The call returns its own Metrics, exact under concurrent queries on
// one federation, and the Trace of its execution. Both are also
// returned when the query fails, describing the work done up to the
// error.
func (f *Federation) QueryStreamTraced(ctx context.Context, query string, onChunk func(vars []Var, rows []Binding) error) (*Results, Metrics, *Trace, error) {
	return f.engine.ExecuteStreamTraced(ctx, query, onChunk)
}

// EndpointStat names one endpoint's cumulative traffic statistics.
type EndpointStat = endpoint.EndpointStat

// EndpointStats reports per-endpoint request, error, and latency
// statistics, sorted by endpoint name. Latencies cover whole logical
// calls, retries and backoff included.
func (f *Federation) EndpointStats() []EndpointStat { return f.engine.EndpointStats() }

// BreakerState is a circuit breaker's externally visible state.
type BreakerState = endpoint.BreakerState

// Breaker states.
const (
	BreakerClosed   = endpoint.BreakerClosed
	BreakerOpen     = endpoint.BreakerOpen
	BreakerHalfOpen = endpoint.BreakerHalfOpen
)

// BreakerStatus pairs an endpoint name with its breaker state.
type BreakerStatus = endpoint.BreakerStatus

// BreakerStates reports the circuit-breaker state of every endpoint,
// sorted by name (empty unless the federation was built
// WithResilience). A breaker past its cooldown reads half-open: the
// next request is its probe. lusail-server reports not-ready only
// while every breaker is open.
func (f *Federation) BreakerStates() []BreakerStatus { return f.engine.BreakerStates() }

// InvalidateCaches drops every retained planning decision (source
// selection, locality checks, COUNT statistics) and cached subquery
// result — the hook for callers that know federation data changed.
// In-flight computations complete for their waiters but are not
// re-stored.
func (f *Federation) InvalidateCaches() { f.engine.InvalidateCaches() }

// InvalidateEndpointCaches drops the cached state that depends on one
// endpoint (by name) in one step, by advancing the endpoint's
// generation: its ASK selections, locality checks, COUNT statistics and
// summary go at once, and every cached subquery result sourced from it
// is refused from then on. State for other endpoints survives.
func (f *Federation) InvalidateEndpointCaches(name string) {
	f.engine.InvalidateEndpointCaches(name)
}

// RegisterMetrics bridges the federation's live state into reg:
// per-endpoint request/error/latency families, circuit-breaker state
// gauges, and the in-flight pool-depth gauge. Values are read at
// scrape time, so one registration covers the federation's lifetime.
func (f *Federation) RegisterMetrics(reg *MetricsRegistry) {
	obs.RegisterEndpointStats(reg, f.EndpointStats)
	obs.RegisterBreakers(reg, f.BreakerStates)
	obs.RegisterInFlight(reg, f.engine.InFlight)
	obs.RegisterCaches(reg, f.engine.CacheStats)
	obs.RegisterCoherence(reg, f.engine.CoherenceStats)
	obs.RegisterStats(reg, f.StatisticsStats)
}

// TraceSink receives completed query traces for export. The obs layer
// provides two composable implementations: NewTraceSampler (tail
// sampling) and NewSpanExporter (OTLP/HTTP shipping).
type TraceSink = trace.Sink

// SpanExporter ships completed traces to an OTLP/HTTP collector from a
// bounded asynchronous queue with batching and bounded retry.
type SpanExporter = obs.SpanExporter

// ExporterConfig tunes a SpanExporter.
type ExporterConfig = obs.ExporterConfig

// NewSpanExporter starts an OTLP/HTTP span exporter. Call Shutdown on
// process exit to flush the queue.
func NewSpanExporter(cfg ExporterConfig) *SpanExporter { return obs.NewSpanExporter(cfg) }

// TraceSampler is the tail-sampling stage of a trace export chain: it
// forwards head-sampled traces and always retains slow, errored, and
// degraded ones regardless of the head decision.
type TraceSampler = obs.TraceSampler

// SamplerConfig tunes a TraceSampler.
type SamplerConfig = obs.SamplerConfig

// NewTraceSampler builds the tail-sampling sink stage.
func NewTraceSampler(cfg SamplerConfig) *TraceSampler { return obs.NewTraceSampler(cfg) }

// WithTraceSampling sets the head-sampling ratio for locally-rooted
// traces (deterministic on the trace ID). 1 keeps everything (the
// default), 0 marks every trace unsampled so only tail rules (slow,
// errored, degraded) retain traces. Queries joined to a remote parent
// via W3C trace context keep the caller's sampled flag instead.
func WithTraceSampling(ratio float64) Option {
	return func(c *core.Config) { c.TraceSampling = &ratio }
}

// TraceparentHeader is the W3C Trace Context request header
// ("traceparent"); the federation's endpoint clients inject it on
// every outgoing request, and servers extract it to join the caller's
// trace.
const TraceparentHeader = trace.TraceparentHeader

// ExtractTraceContext reads an inbound W3C traceparent header into
// ctx; queries run under the returned context join the caller's
// distributed trace (same trace ID, parented spans, propagated
// sampling decision).
func ExtractTraceContext(ctx context.Context, h http.Header) context.Context {
	return trace.Extract(ctx, h)
}

// Plan is the plan tree of a query: per group graph pattern, the global
// join variables and the decomposed subqueries with sources,
// cardinality estimates, and delay decisions, with the plans of UNION
// alternatives and nested OPTIONAL groups under Groups.
type Plan = core.Plan

// Explain plans a query and returns its plan tree without running it:
// the same planning pass an execution runs, so only the lightweight
// ASK / check / COUNT probes are sent to the endpoints — for the
// nested groups as well as the top one.
func (f *Federation) Explain(ctx context.Context, query string) (*Plan, error) {
	return f.engine.Explain(ctx, query)
}

// Analysis is an executed plan: the plan tree an execution planned and
// ran, annotated with actual per-subquery cardinalities, latencies, and
// delay-decision outcomes.
type Analysis = core.Analysis

// ExplainAnalyze executes the query (paying its full cost, once — there
// is no second planning pass) and returns the plan that ran, every
// subquery of it, nested groups included, next to its own execution
// record or the reason it left none.
func (f *Federation) ExplainAnalyze(ctx context.Context, query string) (*Analysis, error) {
	return f.engine.ExplainAnalyze(ctx, query)
}

// Endpoints returns the federation's endpoints.
func (f *Federation) Endpoints() []Endpoint { return f.endpoints }

// MemoryEndpoint is an in-process endpoint backed by an indexed
// in-memory triple store.
type MemoryEndpoint = endpoint.Local

// LoadEndpoint builds an in-process endpoint from an N-Triples
// document.
func LoadEndpoint(name string, ntriples io.Reader) (*MemoryEndpoint, error) {
	g, err := rdf.ParseNTriples(ntriples)
	if err != nil {
		return nil, fmt.Errorf("lusail: loading endpoint %s: %w", name, err)
	}
	return endpoint.NewLocal(name, store.FromGraph(g)), nil
}

// NewEndpoint builds an empty in-process endpoint; triples can be
// added through its Store.
func NewEndpoint(name string) *MemoryEndpoint {
	return endpoint.NewLocal(name, store.New())
}

// ConnectHTTP returns an endpoint speaking the SPARQL protocol at the
// given URL (query via form-encoded POST, results as streamed SPARQL
// JSON). The endpoint rides a process-wide tuned transport (raised
// per-host keep-alive pool, dial/TLS timeouts) so the executor's
// concurrent subqueries reuse connections instead of queueing behind
// Go's default two-per-host idle pool; see HTTPOption for knobs.
func ConnectHTTP(name, url string, opts ...HTTPOption) Endpoint {
	return endpoint.NewHTTP(name, url, opts...)
}

// HTTPOption customizes a ConnectHTTP endpoint.
type HTTPOption = endpoint.HTTPOption

// TransportConfig tunes an HTTP transport built with NewTransport for
// WithHTTPTransport.
type TransportConfig = endpoint.TransportConfig

// NewHTTPTransport builds a tuned *http.Transport (connection
// pooling, dial/TLS timeouts) from cfg; pass it to WithHTTPTransport
// to give one federation its own pool.
func NewHTTPTransport(cfg TransportConfig) *http.Transport { return endpoint.NewTransport(cfg) }

// WithHTTPTransport swaps the endpoint's transport (e.g. a dedicated
// pool from NewHTTPTransport).
func WithHTTPTransport(t http.RoundTripper) HTTPOption { return endpoint.WithTransport(t) }

// WithHTTPTimeout bounds each request end to end; zero removes the
// client-side bound (the per-query context still applies).
func WithHTTPTimeout(d time.Duration) HTTPOption { return endpoint.WithRequestTimeout(d) }

// WithHTTPGzipRequests gzip-encodes request bodies of at least
// minBytes — bound subqueries carry VALUES blocks that compress well;
// minBytes <= 0 picks a sensible default. The serving side (Serve,
// cmd/endpoint) inflates transparently.
func WithHTTPGzipRequests(minBytes int) HTTPOption { return endpoint.WithGzipRequests(minBytes) }

// DefaultMaxRequestBytes is the default cap on SPARQL protocol POST
// bodies enforced by Serve and the server daemons; oversized requests
// receive HTTP 413.
const DefaultMaxRequestBytes = endpoint.DefaultMaxRequestBytes

// Serve returns an http.Handler exposing ep over the SPARQL protocol;
// mount it to make an in-process endpoint reachable by remote
// federators. Request bodies are capped at DefaultMaxRequestBytes
// (use ServeWithConfig to change the cap or the logger).
func Serve(ep *MemoryEndpoint) http.Handler { return endpoint.Handler(ep) }

// EndpointHandlerConfig tunes ServeWithConfig.
type EndpointHandlerConfig = endpoint.HandlerConfig

// ServeWithConfig is Serve with an explicit logger and request-body
// cap.
func ServeWithConfig(ep *MemoryEndpoint, cfg EndpointHandlerConfig) http.Handler {
	return endpoint.HandlerWithConfig(ep, cfg)
}

// Engine is the interface shared by Lusail and the baseline engines.
type Engine = federation.Engine

// NewBaseline constructs one of the comparison systems over the
// endpoints: "fedx" (index-free, bound joins), "splendid" (VoID-index
// based), "hibiscus" (authority summaries over the FedX executor), or
// "naive" (ship every pattern, join centrally). Index-based baselines
// pay their preprocessing here and require in-process endpoints.
func NewBaseline(name string, eps []Endpoint) (Engine, error) {
	switch name {
	case "fedx":
		return fedx.New(eps, fedx.Config{}), nil
	case "splendid":
		idx, err := splendid.BuildIndex(eps)
		if err != nil {
			return nil, err
		}
		return splendid.New(eps, idx, splendid.Config{}), nil
	case "hibiscus":
		sum, err := hibiscus.BuildSummary(eps)
		if err != nil {
			return nil, err
		}
		return hibiscus.New(eps, sum, fedx.Config{}), nil
	case "naive":
		return federation.NewNaive(eps, federation.NewKnowledge(eps)), nil
	default:
		return nil, fmt.Errorf("lusail: unknown baseline %q", name)
	}
}
