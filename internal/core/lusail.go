package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/federation"
	"lusail/internal/sparql"
	"lusail/internal/stats"
	"lusail/internal/trace"
)

// Config tunes Lusail.
type Config struct {
	// DelayPolicy selects the delayed-subquery threshold; the paper's
	// default is mu+sigma (Fig. 9).
	DelayPolicy DelayPolicy
	// DisableCache turns off plan knowledge: no ASK / check-query / COUNT
	// answer or statistics summary is retained or consulted, so every
	// query probes for everything it plans with. The subquery-result
	// cache has its own switch (SubqueryCacheSize); an engine that
	// retains neither probes no data versions.
	DisableCache bool
	// AssumeAllGlobal disables locality check queries, treating every
	// shared variable as global (LADE ablation: pure schema-based
	// decomposition, one pattern at a time when schemas overlap).
	AssumeAllGlobal bool
	// Resilience, when non-nil, gives every endpoint's client a
	// per-attempt timeout, bounded retries with jittered exponential
	// backoff on transient faults, and a circuit breaker. nil (the
	// default) means one attempt and no breaker: the first endpoint
	// error surfaces immediately, as an all-or-nothing federation. See
	// endpoint.DefaultResilience for tuned defaults.
	Resilience *endpoint.ResilienceConfig
	// Degradation selects how the engine responds to an endpoint whose
	// retries exhaust (or whose breaker is open) mid-query. The default
	// DegradeFail keeps today's all-or-nothing behavior; SkipEndpoint
	// and BestEffort drop the failing endpoint's contribution, keep
	// joining what remains, and annotate the result with a Completeness
	// report.
	Degradation endpoint.DegradePolicy
	// QueryBudget, when > 0, bounds each query's wall-clock time. Under
	// BestEffort an expired budget skips the remaining delayed
	// subqueries and returns the (annotated) partial answer; under the
	// other policies it fails the query like a deadline.
	QueryBudget time.Duration
	// Hedge, when true, lets every endpoint's client hedge phase-1
	// subqueries: one whose latency exceeds the endpoint's observed p95
	// gets one backup attempt, first result wins. Each attempt runs its
	// own Resilience retry loop.
	Hedge bool
	// SubqueryCacheSize, when > 0, retains phase-1 subquery results in
	// a persistent cross-query cache of at most this many entries (LRU
	// eviction past the bound), keyed on (canonicalized subquery text,
	// stable endpoint names). Every query shares the one cache, so repeat
	// traffic reuses earlier queries' subquery results, and concurrent
	// queries that decompose to the same subquery execute it once (the
	// cache is single-flight): multi-query optimization is a property of
	// the engine, not a call. 0 (the default) disables subquery reuse.
	SubqueryCacheSize int
	// SubqueryCacheTTL bounds the staleness of a persistent cached
	// subquery result (0 = no expiry). Only meaningful with
	// SubqueryCacheSize > 0.
	SubqueryCacheTTL time.Duration
	// QueryLog, when non-nil, receives a lifecycle event pair for
	// every query execution: QueryStarted assigns the query's
	// correlation ID, and QueryFinished reports its metrics, row
	// count, error, and the root span, stamped with the query's totals.
	// The correlation ID is also threaded into the trace as the root
	// span's "qid" attribute.
	QueryLog QueryLogger
	// Statistics, when non-nil, enables the offline statistics service:
	// harvested per-endpoint summaries (predicate cardinalities, class
	// counts, predicate-pair join summaries) answer plan-time ASK /
	// locality-check / COUNT questions without contacting endpoints,
	// falling back to probes on summary miss. Summaries are fenced
	// against endpoint data versions like every other cache. Harvest
	// via RefreshStats (or the server's background refresher).
	Statistics *stats.Config
	// TraceSampling, when non-nil, is the head-sampling ratio applied to
	// locally-rooted traces (deterministic on the trace ID, so one
	// query's spans are kept or dropped as a unit across processes).
	// nil samples everything; 0.0 marks every locally-rooted trace
	// unsampled, leaving retention entirely to tail rules (slow,
	// errored, degraded). Traces joined from a remote parent honor the
	// caller's sampled flag instead — the head decision belongs to the
	// trace's root.
	TraceSampling *float64
}

// QueryLogger receives query lifecycle events. Implementations must be
// safe for concurrent use: concurrent queries report concurrently.
// internal/obs provides the standard implementation (structured slog
// output, slow-query ring buffer, metric counters); core only defines
// the interface so it never depends on the observability layer.
type QueryLogger interface {
	// QueryStarted is called before execution and returns the query's
	// correlation ID.
	QueryStarted(query string) (id string)
	// QueryFinished is called exactly once per started query, after
	// the metrics are final. rows is -1 when the query failed before
	// producing results; root is the execution's ended root span.
	QueryFinished(id, query string, m Metrics, rows int, err error, root *trace.Span)
}

// Metrics profiles one query execution through Lusail's three phases
// (Fig. 10) and its remote traffic.
type Metrics struct {
	SourceSelection time.Duration
	Analysis        time.Duration
	Execution       time.Duration

	AskRequests    int // source selection probes sent
	CheckQueries   int // LADE locality probes sent
	CountQueries   int // SAPE statistics probes sent
	Phase1Requests int // non-delayed subquery evaluations
	Phase2Requests int // bound (delayed) subquery evaluations
	BoundBlocks    int
	// SummaryHits counts plan-time questions (ASK relevance, LADE
	// locality, COUNT cardinality) answered from the offline
	// statistics summaries instead of endpoint probes.
	SummaryHits int

	Subqueries int
	Delayed    int
	GJVs       int
	// Retries and BreakerOpens count the fault-recovery events of this
	// query (non-zero only with Config.Resilience set). They are
	// tracked per call via context-attached counters, so concurrent
	// executions do not double-count each other; a subquery shared
	// through the subquery cache attributes its events to the query that
	// actually issued the requests.
	Retries      int
	BreakerOpens int
	// Hedges counts the backup attempts launched for this query's
	// phase-1 requests (non-zero only with Config.Hedge set).
	Hedges int
	// ChunkSplits counts the VALUES-block bisections phase-2 performed
	// after an endpoint rejected or timed out on a block.
	ChunkSplits int
	// DroppedEndpoints counts the contributions a degraded execution
	// dropped, and Completeness details them (nil unless a degradation
	// policy or query budget was configured). Like Retries they are
	// tracked per call, so concurrent executions do not cross-attribute.
	DroppedEndpoints int
	Completeness     *sparql.Completeness
}

// Total returns the total response time.
func (m Metrics) Total() time.Duration {
	return m.SourceSelection + m.Analysis + m.Execution
}

// RemoteRequests totals every request Lusail sent for the query.
func (m Metrics) RemoteRequests() int {
	return m.AskRequests + m.CheckQueries + m.CountQueries +
		m.Phase1Requests + m.Phase2Requests
}

// Lusail is the federated query engine of the paper: locality-aware
// decomposition at compile time, selectivity-aware parallel execution
// at run time.
type Lusail struct {
	eps []endpoint.Endpoint
	cfg Config

	// know holds the per-endpoint data versions and the generations
	// that fence everything the engine retains, and — unless
	// Config.DisableCache — the plan knowledge itself. know is nil when
	// the engine retains nothing.
	know    *federation.Knowledge
	sqCache *SubqueryCache // nil unless Config.SubqueryCacheSize > 0
	stats   *stats.Service // nil unless Config.Statistics

	selector   *federation.Selector
	decomposer *Decomposer
	// partition is Decompose. It is a field so the oracle test of the
	// paper's literal Algorithm 2 (DecomposeTraversal, the reference the
	// property test compares Decompose against) can run the engine over it.
	partition func([]sparql.TriplePattern, [][]int, *GJVReport) []*Subquery
	cost      *CostModel
	executor  *Executor
}

// New builds a Lusail engine over the endpoints.
func New(eps []endpoint.Endpoint, cfg Config) *Lusail {
	// Every internal consumer (selector, decomposer, cost model,
	// executor) sees the clients, so ASK probes, check queries, COUNT
	// probes, and subquery evaluations all retry, and EndpointStats
	// latencies cover whole logical calls, retries and backoff included.
	clients := make([]endpoint.Endpoint, len(eps))
	for i, ep := range eps {
		var rc *endpoint.ResilienceConfig
		if cfg.Resilience != nil {
			// Each endpoint gets its own breaker and jitter stream.
			c := *cfg.Resilience
			c.Seed += int64(i) * 104729
			rc = &c
		}
		clients[i] = endpoint.NewClient(ep, rc, cfg.Hedge)
	}
	eps = clients
	l := &Lusail{eps: eps, cfg: cfg}
	// plan is the knowledge the planners consult and the harvest fills:
	// nil under DisableCache, when l.know carries generations only.
	var plan *federation.Knowledge
	if !cfg.DisableCache || cfg.SubqueryCacheSize > 0 {
		l.know = federation.NewKnowledge(eps)
		if !cfg.DisableCache {
			plan = l.know
		}
	}
	if cfg.SubqueryCacheSize > 0 {
		l.sqCache = NewSubqueryCache(l.know, cfg.SubqueryCacheSize, cfg.SubqueryCacheTTL)
	}
	l.selector = federation.NewSelector(eps, plan)
	l.decomposer = NewDecomposer(eps, plan)
	l.decomposer.AssumeAllGlobal = cfg.AssumeAllGlobal
	l.partition = Decompose
	l.cost = NewCostModel(eps, plan)
	l.executor = NewExecutor(eps)
	if cfg.Statistics != nil {
		// Summaries are harvested through the endpoint clients straight
		// into the plan knowledge, where source selection, LADE and the
		// cost model find them before probing.
		l.stats = stats.New(eps, *cfg.Statistics, plan)
		if cfg.Statistics.Calibrate {
			l.wireCalibration()
		}
	}
	return l
}

// wireCalibration closes the estimate-vs-actual loop: the executor
// feeds phase-1 actual row counts into the per-(endpoint, predicate)
// correction factors the cost model rescales its estimates by.
func (l *Lusail) wireCalibration() {
	l.cost.Calibration = func(ei int, tp sparql.TriplePattern) float64 {
		return l.stats.Factor(l.eps[ei].Name(), predKeyOf(tp))
	}
	l.executor.Observe = func(sq *Subquery, actual int) {
		names := make([]string, 0, len(sq.Sources))
		for _, ei := range sq.Sources {
			names = append(names, l.eps[ei].Name())
		}
		preds := make([]string, 0, len(sq.Patterns))
		for _, tp := range sq.Patterns {
			preds = append(preds, predKeyOf(tp))
		}
		l.stats.Observe(names, preds, sq.EstCard, float64(actual))
	}
}

// predKeyOf is the calibration key of a pattern's predicate position;
// variable predicates share the "?" bucket.
func predKeyOf(tp sparql.TriplePattern) string {
	if tp.P.IsVar() {
		return "?"
	}
	return tp.P.Term.Value
}

// Name implements federation.Engine.
func (l *Lusail) Name() string { return "lusail" }

// InvalidateCaches is the explicit cross-query invalidation hook:
// callers that know federation data changed drop all plan knowledge
// (source selection, LADE locality, COUNT statistics, statistics
// summaries) and every subquery result. In-flight computations complete
// for their waiters but are not re-stored.
func (l *Lusail) InvalidateCaches() {
	l.know.Clear()
	l.sqCache.Clear()
}

// InvalidateEndpointCaches drops the cached state that depends on one
// endpoint (by name) by advancing its generation: everything the plan
// knowledge holds about it goes at once, and every cached subquery
// result sourced from it is refused — and dropped — when a lookup finds
// it. Computations in flight against it are not stored. State for other
// endpoints survives.
func (l *Lusail) InvalidateEndpointCaches(name string) {
	l.know.Invalidate(name)
}

// CacheStatEntry names one engine cache alongside its counters and —
// for caches probed on the traced query path — the most recent traced
// hit and miss, so metric exposition can attach exemplars.
type CacheStatEntry struct {
	Name  string
	Stats CacheStats
	// HitExemplar/MissExemplar are the latest sampled traced queries
	// that hit or missed this cache (nil where untracked or none yet).
	HitExemplar  *trace.Exemplar
	MissExemplar *trace.Exemplar
}

// CacheStats snapshots every engine cache's hit/miss/evict/expire
// counters and current size, for metrics export and the workload
// experiment.
func (l *Lusail) CacheStats() []CacheStatEntry {
	sqHit, sqMiss := l.sqCache.Exemplars()
	return []CacheStatEntry{
		{Name: "ask", Stats: l.know.Stats(federation.KindAsk)},
		{Name: "check", Stats: l.know.Stats(federation.KindCheck)},
		{Name: "count", Stats: l.know.Stats(federation.KindCount)},
		{Name: "subquery", Stats: l.sqCache.Stats(),
			HitExemplar: sqHit, MissExemplar: sqMiss},
	}
}

// RefreshStats harvests (or re-harvests) every endpoint's statistics
// summary. A no-op without Config.Statistics.
func (l *Lusail) RefreshStats(ctx context.Context) error {
	return l.stats.Refresh(ctx)
}

// StatsSnapshot snapshots the statistics counters — the harvester's and
// calibrator's, plus the plan knowledge's summary lookups (zero value
// when the service is disabled).
func (l *Lusail) StatsSnapshot() stats.ServiceStats {
	if l.stats == nil {
		return stats.ServiceStats{}
	}
	st := l.stats.Stats()
	l.know.SummaryStats(&st)
	return st
}

// CoherenceStats snapshots the fence: per-endpoint tracked data
// versions plus probe/change counters and the subquery-cache entries it
// fenced (zero value when the engine retains nothing).
func (l *Lusail) CoherenceStats() federation.CoherenceStats {
	st := l.know.CoherenceStats()
	st.Fenced = l.sqCache.fencedEntries()
	return st
}

// EndpointStats snapshots per-endpoint traffic, error, and latency
// statistics.
func (l *Lusail) EndpointStats() []endpoint.EndpointStat {
	return endpoint.PerEndpointStats(l.eps)
}

// BreakerStates reports the circuit-breaker state of every endpoint,
// sorted by name (empty without Config.Resilience: there are no
// breakers).
func (l *Lusail) BreakerStates() []endpoint.BreakerStatus {
	return endpoint.BreakerStatuses(l.eps)
}

// InFlight reports the number of remote requests currently on the wire
// through the engine's endpoint clients — ASK, check and COUNT probes,
// subquery evaluations and statistics harvests alike: the live
// federation pool depth.
func (l *Lusail) InFlight() int64 {
	var n int64
	for _, ep := range l.eps {
		n += ep.(*endpoint.Client).InFlight()
	}
	return n
}

// Execute runs a federated SPARQL query and collects its rows: it is
// ExecuteStreamTraced with a nil sink, in the federation.Engine shape.
func (l *Lusail) Execute(ctx context.Context, query string) (*sparql.Results, error) {
	res, _, _, err := l.execute(ctx, query, nil)
	return res, err
}

// ExecuteStreamTraced runs a federated SPARQL query, delivering result
// rows through onChunk in bounded chunks as the executor produces them —
// the first chunk typically arrives while slower endpoints are still
// answering, instead of after the last join. onChunk receives the
// projected header (identical on every call) and a chunk of rows;
// returning an error aborts the query. The returned Results summary
// has empty Rows and Streamed set to the number of rows delivered
// (Len() reports it), so metrics and logging see the true row count.
// With a nil onChunk the rows are collected into the returned Results
// instead: materialized execution is the stream drained into a collector.
//
// Solution modifiers that need the whole result first (DISTINCT,
// COUNT, ORDER BY) hold the stream back in a blocking collector and
// deliver their rows once it has drained; an ASK query delivers no
// rows and returns its boolean.
//
// The call returns its own Metrics, exact under concurrent calls on one
// engine, and its span tree: one span per pipeline stage (source
// selection, GJV checks, COUNT estimation, phase-1 subqueries, bound
// phase-2 subqueries, joins), each with wall-clock duration,
// request/row counts, and retry/breaker attribution. Both are returned,
// partially filled, when the query fails, describing the work done up
// to the error.
func (l *Lusail) ExecuteStreamTraced(ctx context.Context, query string, onChunk StreamSink) (*sparql.Results, Metrics, *trace.Trace, error) {
	res, r, tr, err := l.execute(ctx, query, onChunk)
	return res, r.m, tr, err
}

// newQueryTrace starts the query's trace: joined to an inbound remote
// parent when ctx carries one (W3C trace context extracted upstream),
// fresh otherwise. Head sampling (Config.TraceSampling) applies only to
// locally-rooted traces — a joined trace keeps the caller's sampled
// flag so the federation-wide trace is retained or dropped as a unit.
func (l *Lusail) newQueryTrace(ctx context.Context) *trace.Trace {
	tr := trace.NewFromContext(ctx, "query")
	if _, remote := trace.RemoteParentFrom(ctx); !remote && l.cfg.TraceSampling != nil {
		tr.Root.SetSampled(trace.SampleRatio(tr.ID(), *l.cfg.TraceSampling))
	}
	return tr
}

// errStreamStop is the sentinel the row sink returns once the query's
// LIMIT is satisfied; the executor unwinds and the query completes
// successfully.
var errStreamStop = errors.New("stream: limit satisfied")

// stampTotals ends the query's root span and stamps it with the query's
// totals.
func stampTotals(root *trace.Span, res *sparql.Results, m *Metrics) {
	root.End()
	root.Set("requests", int64(m.RemoteRequests()))
	if res != nil {
		root.Set("rows", int64(res.Len()))
	}
	if m.Retries > 0 {
		root.Set("retries", int64(m.Retries))
	}
	if m.BreakerOpens > 0 {
		root.Set("breaker_opens", int64(m.BreakerOpens))
	}
	if m.Hedges > 0 {
		root.Set("hedges", int64(m.Hedges))
	}
	if m.DroppedEndpoints > 0 {
		root.Set("dropped", int64(m.DroppedEndpoints))
		root.Set("completeness", m.Completeness.String())
	}
}

// run is one query's state, from parse to finalize: the query, the plan
// tree built for it once, the profile it accumulates and the degradation
// state. Planning and evaluation are its methods, and each passes the
// degradation state on to the phase it calls. The query's span and the
// hedge opt-in ride the context, for the endpoint clients.
type run struct {
	l    *Lusail
	q    *sparql.Query
	root *Plan
	m    Metrics
	dg   *endpoint.Degrade // nil without a degradation policy or budget
}

// withDegrade sets r's degradation state from the engine's policy, and
// puts the budget's deadline on ctx when budget > 0, so every phase
// records dropped contributions against exactly this query. With
// neither a policy nor a budget it returns ctx unchanged and leaves r.dg
// nil.
func (r *run) withDegrade(ctx context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	policy := r.l.cfg.Degradation
	if policy == endpoint.DegradeFail && budget <= 0 {
		return ctx, func() {}
	}
	cancel := func() {}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
		ctx, cancel = context.WithDeadline(ctx, deadline)
	}
	r.dg = endpoint.NewDegrade(policy, deadline)
	return ctx, cancel
}

// execute is the one query lifecycle, behind every entry point: query
// trace and query log pair, parse, fault counters, degradation state and
// budget, coherence fence, one planning pass, pipelined evaluation of the
// plan, and the solution modifiers in front of the caller's sink. The
// returned summary has no Rows: they went to onChunk, and Streamed counts
// them — unless onChunk is nil, which collects them into the summary. The
// returned run (never nil) carries the call's own Metrics and the plan
// that ran.
func (l *Lusail) execute(ctx context.Context, query string, onChunk StreamSink) (res *sparql.Results, r *run, tr *trace.Trace, err error) {
	r = &run{l: l}
	tr = l.newQueryTrace(ctx)
	root := tr.Root
	ctx = trace.WithSpan(ctx, root)
	var id string
	if l.cfg.QueryLog != nil {
		id = l.cfg.QueryLog.QueryStarted(query)
		// Thread the correlation ID through the trace context so the
		// rendered span tree and the log stream can be joined on it.
		root.Set("qid", id)
	}
	// Registered before the metrics defer below so it runs after it
	// (LIFO): the stamped and logged totals include the final fault
	// attribution, and the query log captures the stamped root.
	defer func() {
		stampTotals(root, res, &r.m)
		if l.cfg.QueryLog != nil {
			rows := -1
			if res != nil {
				rows = res.Len()
			}
			l.cfg.QueryLog.QueryFinished(id, query, r.m, rows, err, root)
		}
	}()
	if r.q, err = sparql.Parse(query); err != nil {
		return nil, r, tr, err
	}
	q := r.q
	// Attribute the whole query's fault-recovery events (source
	// selection, analysis, and execution alike) to its metrics, and
	// record metrics even when the query errors out, so experiments
	// can report what a failed query cost. The endpoint clients add
	// each event to the span riding the request's context, so the
	// query's own tree holds exactly its events even while concurrent
	// executions share the endpoint totals.
	ctx, cancel := r.withDegrade(ctx, l.cfg.QueryBudget)
	defer cancel()
	defer func() {
		r.m.Retries = int(root.SumInt("retries"))
		r.m.BreakerOpens = int(root.SumInt("breaker_opens"))
		r.m.Hedges = int(root.SumInt("hedges"))
		if r.dg != nil {
			r.m.DroppedEndpoints = r.dg.DropCount()
			r.m.Completeness = r.dg.Completeness()
		}
	}()
	// Fence before planning: a version change detected here drops the
	// changed endpoint's slot, so this query reuses nothing computed
	// against its old data.
	l.know.Refresh(ctx)

	if err = r.plan(ctx); err != nil {
		return nil, r, tr, err
	}
	// Everything from here on is the execution phase: the three phase
	// durations partition the query's time.
	t := time.Now()
	defer func() { r.m.Execution = time.Since(t) }()

	// DISTINCT, ORDER BY, COUNT and ASK need the whole solution sequence
	// before the first row can leave: a blocking collector holds the
	// stream and engine.Finalize runs in front of the caller's sink.
	// Projection and OFFSET/LIMIT commute with chunked delivery and
	// apply to each chunk as it passes.
	blocking := q.Form == sparql.AskForm || q.Distinct || q.Count || len(q.OrderBy) > 0
	// keeps: whatever the executor delivers to is holding on to every row,
	// so it may keep the streaming tail whole for the subquery cache too.
	keeps := blocking
	if onChunk == nil {
		keeps = true
		rows := []sparql.Binding{}
		onChunk = collectInto(&rows)
		defer func() {
			if res != nil && !res.AskForm {
				res.Rows, res.Streamed = rows, 0
			}
		}()
	}
	var held []sparql.Binding // what the blocking collector holds
	emitted := 0
	sink := limitSink(q, onChunk, &emitted)
	if blocking {
		sink = collectInto(&held)
	}
	if err = r.eval(ctx, r.root, sink, keeps); err != nil && !errors.Is(err, errStreamStop) {
		return nil, r, tr, err
	}

	// Every query tree ends with a finalize node carrying the row count.
	sp := trace.SpanFrom(ctx).StartChild("finalize")
	defer sp.End()
	res = &sparql.Results{Vars: q.ProjectedVars(), Streamed: emitted}
	switch {
	case q.Form == sparql.AskForm:
		res = sparql.NewAskResult(len(held) > 0)
	case blocking:
		final := engine.Finalize(q, held)
		res = &sparql.Results{Vars: final.Vars, Streamed: len(final.Rows)}
		if len(final.Rows) > 0 {
			if err = onChunk(final.Vars, final.Rows); err != nil {
				return nil, r, tr, err
			}
		}
	}
	res.Completeness = r.dg.Completeness()
	sp.Set("rows", int64(res.Len()))
	return res, r, tr, nil
}

// collectInto is the sink that holds on to every row it is given, in
// *dst — what sinkKeeps tells the executor about.
func collectInto(dst *[]sparql.Binding) StreamSink {
	return func(_ []sparql.Var, rows []sparql.Binding) error {
		*dst = append(*dst, rows...)
		return nil
	}
}

// limitSink is the non-blocking path to the caller's sink: it projects
// each chunk to the query's header (copying, as the joined rows are
// shared with the executor's hash tables), skips OFFSET rows, counts
// what it delivers in *emitted, and returns errStreamStop once LIMIT
// is satisfied.
func limitSink(q *sparql.Query, onChunk StreamSink, emitted *int) StreamSink {
	proj := q.ProjectedVars()
	offset := q.Offset
	return func(_ []sparql.Var, rows []sparql.Binding) error {
		if q.Limit >= 0 && *emitted >= q.Limit {
			return errStreamStop
		}
		if offset >= len(rows) {
			offset -= len(rows)
			return nil
		}
		rows, offset = rows[offset:], 0
		if q.Limit >= 0 && *emitted+len(rows) > q.Limit {
			rows = rows[:q.Limit-*emitted]
		}
		out := make([]sparql.Binding, len(rows))
		for i, row := range rows {
			b := make(sparql.Binding, len(proj))
			for _, v := range proj {
				if t, ok := row[v]; ok {
					b[v] = t
				}
			}
			out[i] = b
		}
		*emitted += len(out)
		if err := onChunk(proj, out); err != nil {
			return err
		}
		if q.Limit >= 0 && *emitted >= q.Limit {
			return errStreamStop
		}
		return nil
	}
}

// startPhase opens a traced phase span and attaches it to the returned
// context, where the endpoint clients add the retry, breaker and hedge
// events of the requests issued under it to its "retries",
// "breaker_opens" and "hedges" attributes. With no span attached to
// ctx it is free: ctx is returned unchanged.
func startPhase(ctx context.Context, name string) (context.Context, *trace.Span) {
	parent := trace.SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.StartChild(name)
	return trace.WithSpan(ctx, sp), sp
}

// Plan is the fully-analyzed plan of one group graph pattern, and through
// Groups the plan tree of everything nested in it. Planning builds it
// once per query, evaluating nothing; Executor.Execute consumes it,
// Explain returns it as it stands, and ExplainAnalyze returns the one an
// execution ran.
type Plan struct {
	// GJVs are the group's global join variables, sorted, and CheckQueries
	// the locality probes LADE sent to find them.
	GJVs         []sparql.Var
	CheckQueries int
	// Subqueries are the group's decomposed subqueries, required ones
	// first, then those of its plain OPTIONAL groups, with sources,
	// projections, estimates and delay marks. IDs are per group.
	Subqueries []*Subquery
	// Groups are the plans of the nested groups: OPTIONAL groups with
	// structure of their own, then UNION alternatives in block order.
	Groups []*Plan

	// name is a nested group's span name ("union-0-alt-1",
	// "optional-group-2"), and union / optionalGroup its place in the
	// enclosing group: the UNION block it is an alternative of (-1 for an
	// OPTIONAL group) or its OPTIONAL group id.
	name                 string
	union, optionalGroup int
	globalFilters        []sparql.Expr
	// optFilters maps an OptionalGroup id to the residual filters applied
	// during its left join.
	optFilters map[int][]sparql.Expr
	// values are the group's VALUES blocks, and extra every relation the
	// executor joins alongside the subqueries — UNION blocks, VALUES,
	// structured OPTIONAL groups — which eval fills as it collects Groups.
	values, extra []*Relation
	// empty marks a group proven unsatisfiable during planning (a
	// required pattern with no relevant source); emptyVars is its
	// header. Nothing below an empty group is planned.
	empty     bool
	emptyVars []sparql.Var
	// endpoints resolves source indexes for display.
	endpoints []endpoint.Endpoint
}

// header is the stable header of the group's row stream: every
// variable any part of the plan can bind. Optional variables stay
// unbound in non-matching rows. It is complete once eval has filled
// extra.
func (p *Plan) header() []sparql.Var {
	if p.empty {
		return p.emptyVars
	}
	var out []sparql.Var
	for _, rel := range p.extra {
		out = mergeVarsUnique(out, rel.Vars)
	}
	for _, sq := range p.Subqueries {
		out = mergeVarsUnique(out, sq.ProjVars)
	}
	return out
}

// eval evaluates the plan tree rooted at p, delivering the group's
// solution rows through sink (sinkKeeps: see Executor.Execute). Nested
// groups go first, each collected into the relation the enclosing join
// takes — a UNION block's alternatives into one; then the group's own
// subqueries run through SAPE.
func (r *run) eval(ctx context.Context, p *Plan, sink StreamSink, sinkKeeps bool) error {
	if p.empty {
		return nil
	}
	var unions, optionals []*Relation
	for _, c := range p.Groups {
		rel, err := r.collect(ctx, c)
		switch {
		case err != nil:
			return err
		case c.union < 0:
			rel.Optional, rel.OptionalGroup = true, c.optionalGroup
			optionals = append(optionals, rel)
		case c.union == len(unions):
			unions = append(unions, rel)
		default:
			u := unions[c.union]
			u.Vars = mergeVarsUnique(u.Vars, rel.Vars)
			u.Rows = append(u.Rows, rel.Rows...)
		}
	}
	p.extra = append(append(unions, p.values...), optionals...)
	return r.l.executor.Execute(ctx, p, r.l.sqCache, r.dg, &r.m, sink, sinkKeeps)
}

// collect evaluates a nested group into a relation the enclosing plan
// joins: the group's stream drained into a collector, under a phase
// span carrying the group's name.
func (r *run) collect(ctx context.Context, p *Plan) (*Relation, error) {
	ctx, sp := startPhase(ctx, p.name)
	defer sp.End()
	rel := &Relation{Partitions: 1}
	err := r.eval(ctx, p, collectInto(&rel.Rows), true)
	rel.Vars = p.header()
	sp.Set("rows", int64(len(rel.Rows)))
	return rel, err
}

// plan builds the query's plan tree, the one planning pass of its
// lifetime. It sends only ASK / check / COUNT probes. SourceSelection
// accumulates inside, per basic graph pattern; the rest of the pass is
// Analysis.
func (r *run) plan(ctx context.Context) (err error) {
	// Projections: whatever the solution modifiers read downstream.
	needed := r.q.ProjectedVars()
	for _, k := range r.q.OrderBy {
		needed = append(needed, k.Var)
	}
	if r.q.Count && r.q.CountArg != "" {
		needed = append(needed, r.q.CountArg)
	}
	t := time.Now()
	r.root, err = r.planGroup(ctx, r.q.Where, needed, "")
	r.m.Analysis = time.Since(t) - r.m.SourceSelection
	return err
}

// probed closes a planning step's phase span and accounts for its
// questions: the probes sent (attr on the span, *sent in the Metrics) and
// the answers the statistics summaries gave instead.
func (r *run) probed(sp *trace.Span, attr string, sent *int, probes, summary int) {
	sp.Set(attr, int64(probes))
	if summary > 0 {
		sp.Set("summary_hits", int64(summary))
	}
	sp.End()
	*sent += probes
	r.m.SummaryHits += summary
}

// planBGP runs the compile-time pipeline of one basic graph pattern of
// p's group — its required patterns (og < 0) or those of its plain
// OPTIONAL group og — and files the outcome in p: source selection,
// GJV detection, decomposition, filter pushing (paper §IV). It reports
// false, with nothing filed, when a pattern has no relevant source: the
// pattern set can never match.
func (r *run) planBGP(ctx context.Context, p *Plan, patterns []sparql.TriplePattern, filters []sparql.Expr, og int) (bool, error) {
	l := r.l
	t := time.Now()
	selCtx, selSpan := startPhase(ctx, "source-selection")
	sel, err := l.selector.SelectPatterns(selCtx, r.dg, patterns)
	if err != nil {
		selSpan.End()
		return false, err
	}
	r.probed(selSpan, "asks", &r.m.AskRequests, sel.AskRequests, sel.SummaryAnswers)
	r.m.SourceSelection += time.Since(t)
	for i := range patterns {
		if len(sel.Sources[i]) > 0 {
			continue
		}
		// SkipEndpoint promises every required pattern keeps at least one
		// live source, so an empty source list after a degraded selection
		// is an error there; BestEffort accepts the (annotated) empty
		// answer. An OPTIONAL part that cannot match is simply absent.
		if og < 0 && r.dg.Policy() == endpoint.DegradeSkipEndpoint && r.dg.DropCount() > 0 {
			return false, fmt.Errorf(
				"lusail: pattern %d lost all relevant sources under skip-endpoint degradation (%s)",
				i, r.dg.Completeness())
		}
		return false, nil
	}

	gjvCtx, gjvSpan := startPhase(ctx, "gjv-checks")
	rep, err := l.decomposer.DetectGJVs(gjvCtx, r.dg, patterns, sel.Sources, TypeConstraints(patterns))
	if err != nil {
		gjvSpan.End()
		return false, err
	}
	gjvSpan.Set("gjvs", int64(len(rep.GJVs)))
	r.probed(gjvSpan, "checks", &r.m.CheckQueries, rep.CheckQueries, rep.SummaryAnswers)
	r.m.GJVs += len(rep.GJVs)
	p.CheckQueries += rep.CheckQueries
	for v := range rep.GJVs {
		if !slices.Contains(p.GJVs, v) {
			p.GJVs = append(p.GJVs, v)
		}
	}
	sortVars(p.GJVs)

	sqs := l.partition(patterns, sel.Sources, rep)
	residual := PushFilters(sqs, filters)
	for _, f := range residual {
		if _, isExists := f.(*sparql.ExistsExpr); isExists {
			return false, fmt.Errorf("lusail: FILTER EXISTS spanning multiple subqueries is not supported")
		}
	}
	if og < 0 {
		p.globalFilters = residual
	} else {
		// OPTIONAL subqueries are marked optional (and therefore delayed).
		for _, sq := range sqs {
			sq.Optional, sq.OptionalGroup = true, og
		}
		p.optFilters[og] = residual
	}
	p.Subqueries = append(p.Subqueries, sqs...)
	return true, nil
}

// planGroup plans one group graph pattern and, recursively, the groups
// nested in it: the basic graph patterns through planBGP, then
// projections, cardinality estimation and delay marking over the
// group's subqueries (paper §V-A), the VALUES blocks as relations, and a
// child plan per UNION alternative and structured OPTIONAL group. needed
// lists the variables the caller reads from the group's rows. It
// evaluates nothing.
func (r *run) planGroup(ctx context.Context, g *sparql.GroupGraphPattern, needed []sparql.Var, name string) (*Plan, error) {
	p := &Plan{name: name, optFilters: map[int][]sparql.Expr{}, endpoints: r.l.eps}
	ok, err := r.planBGP(ctx, p, g.Patterns, g.Filters, -1)
	if err != nil {
		return nil, err
	}
	if !ok {
		p.empty, p.emptyVars = true, g.AllVars()
		return p, nil
	}
	for ogID, og := range g.Optionals {
		if len(og.Optionals) == 0 && len(og.Unions) == 0 && len(og.Values) == 0 {
			if _, err := r.planBGP(ctx, p, og.Patterns, og.Filters, ogID); err != nil {
				return nil, err
			}
			continue
		}
		// Nested structure inside OPTIONAL: the group is its own
		// federated plan, whose relation is left-joined.
		inner, residual := splitOptionalFilters(og)
		child, err := r.planChild(ctx, inner, fmt.Sprintf("optional-group-%d", ogID))
		if err != nil {
			return nil, err
		}
		child.union, child.optionalGroup = -1, ogID
		p.optFilters[ogID] = residual
		p.Groups = append(p.Groups, child)
	}
	for i, sq := range p.Subqueries {
		sq.ID = i
	}

	// Projections: join vars + whatever the caller needs downstream.
	downstream := append([]sparql.Var(nil), needed...)
	for _, f := range p.globalFilters {
		downstream = append(downstream, f.Vars()...)
	}
	for _, fs := range p.optFilters {
		for _, f := range fs {
			downstream = append(downstream, f.Vars()...)
		}
	}
	// UNION alternatives join on shared vars too.
	for _, u := range g.Unions {
		for _, alt := range u.Alternatives {
			downstream = append(downstream, alt.AllVars()...)
		}
	}
	for _, vb := range g.Values {
		downstream = append(downstream, vb.Vars...)
	}
	ComputeProjections(p.Subqueries, downstream)

	cntCtx, cntSpan := startPhase(ctx, "count-estimation")
	cEst, err := r.l.cost.EstimateCards(cntCtx, r.dg, p.Subqueries)
	if err != nil {
		cntSpan.End()
		return nil, err
	}
	r.probed(cntSpan, "counts", &r.m.CountQueries, cEst.Probes, cEst.SummaryHits)
	MarkDelayed(p.Subqueries, r.l.cfg.DelayPolicy)
	r.m.Subqueries += len(p.Subqueries)
	for _, sq := range p.Subqueries {
		if sq.Delayed {
			r.m.Delayed++
		}
	}

	for ui, u := range g.Unions {
		for ai, alt := range u.Alternatives {
			child, err := r.planChild(ctx, alt, fmt.Sprintf("union-%d-alt-%d", ui, ai))
			if err != nil {
				return nil, err
			}
			child.union = ui
			p.Groups = append(p.Groups, child)
		}
	}
	for _, vb := range g.Values {
		p.values = append(p.values, &Relation{
			Vars: append([]sparql.Var(nil), vb.Vars...), Rows: vb.Bindings(), Partitions: 1})
	}
	return p, nil
}

// planChild plans a nested group, whose every variable the enclosing
// join may read, under a phase span of its own.
func (r *run) planChild(ctx context.Context, g *sparql.GroupGraphPattern, name string) (*Plan, error) {
	ctx, sp := startPhase(ctx, "plan-"+name)
	defer sp.End()
	return r.planGroup(ctx, g, g.AllVars(), name)
}

// splitOptionalFilters separates a structured OPTIONAL group's filters:
// those over variables its own patterns can bind stay inside (the
// returned copy of the group carries them); a filter on a variable bound
// outside the OPTIONAL (e.g. FILTER(?outer != x)), or an EXISTS, must
// evaluate at the left join, where the outer binding is visible, and is
// returned as residual.
func splitOptionalFilters(og *sparql.GroupGraphPattern) (inner *sparql.GroupGraphPattern, residual []sparql.Expr) {
	inner = og.Clone()
	inner.Filters = nil
	ogVars := map[sparql.Var]bool{}
	for _, v := range inner.AllVars() {
		ogVars[v] = true
	}
	for _, f := range og.Filters {
		_, isExists := f.(*sparql.ExistsExpr)
		local := !isExists
		for _, v := range f.Vars() {
			local = local && ogVars[v]
		}
		if local {
			inner.Filters = append(inner.Filters, f)
		} else {
			residual = append(residual, f)
		}
	}
	return inner, residual
}
