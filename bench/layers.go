package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lusail"
	"lusail/internal/core"
	"lusail/internal/sparql"
)

// span is one line of spans.jsonl. Spans of one traced request share
// Request; Parent names the span that caused this one (0 for the root).
type span struct {
	Workload string `json:"workload"`
	Request  int    `json:"request"` // index in the traced slice; -1 outside any request
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	// Name is "query" (root, around Federation.QueryStreamTraced),
	// "phase" (the returned Metrics' three durations, laid end to end)
	// or "remote" (one call through an endpoint).
	Name string `json:"name"`
	// Kind is the phase name, or for remote calls what the engine asked
	// for: ask, check, count, phase1, phase2, harvest or version.
	Kind     string `json:"kind,omitempty"`
	Endpoint string `json:"endpoint,omitempty"`
	StartNS  int64  `json:"start_ns"` // since the workload's recorder was made
	EndNS    int64  `json:"end_ns"`
	Rows     int    `json:"rows,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Err      string `json:"err,omitempty"`
}

func (s span) interval() interval { return interval{s.StartNS, s.EndNS} }

// tracedSlice is how many requests of the workload's sequence the
// in-process passes replay (fewer when the time budget ends first),
// and captureRequests how many of those keep their layer inputs
// (response bodies, final rows) for the replays; bodies of a
// join-heavy query are megabytes, so not all of them.
const (
	tracedSlice     = 60
	captureRequests = 8
)

// recorder collects the spans and captured layer inputs of one traced
// pass. Spans stay in memory until the last workload has run.
type recorder struct {
	workload string
	t0       time.Time

	mu     sync.Mutex
	nextID int
	spans  []span
	// bodies holds, per captured request, the SPARQL-JSON bodies its
	// phase-1 and phase-2 calls received.
	bodies map[int][][]byte

	harvesting atomic.Bool
}

// traceKey carries the current request (and later the remote call)
// through the engine's contexts down to the endpoint decorator and
// the HTTP transport.
type traceKey struct{}

type requestScope struct {
	index  int
	rootID int
}

// remoteCall is a remote span being measured; the transport adds the
// body bytes (and the body itself for captured requests) to it.
type remoteCall struct {
	span    span
	bytes   atomic.Int64
	capture *bytes.Buffer
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now(), bodies: map[int][][]byte{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) id() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// classify names what the engine wanted from a remote query by its
// shape: source-selection ASKs, LADE check queries (FILTER NOT EXISTS
// ... LIMIT 1), COUNT probes, VALUES-bound phase-2 blocks; anything
// else is a phase-1 subquery.
func classify(query string) string {
	switch {
	case strings.HasPrefix(query, "ASK"):
		return "ask"
	case strings.Contains(query, "FILTER NOT EXISTS") && strings.HasSuffix(query, "LIMIT 1"):
		return "check"
	case strings.Contains(query, "COUNT("):
		return "count"
	case strings.Contains(query, "VALUES"):
		return "phase2"
	default:
		return "phase1"
	}
}

// spanEndpoint is the harness-owned endpoint decorator: one span per
// remote call, parented to the traced request that caused it.
type spanEndpoint struct {
	inner lusail.Endpoint
	rec   *recorder
}

func (e *spanEndpoint) Name() string { return e.inner.Name() }

func (e *spanEndpoint) begin(ctx context.Context, kind string) (context.Context, *remoteCall) {
	call := &remoteCall{span: span{Workload: e.rec.workload, Request: -1, ID: e.rec.id(),
		Name: "remote", Kind: kind, Endpoint: e.Name()}}
	if scope, ok := ctx.Value(traceKey{}).(requestScope); ok {
		call.span.Request, call.span.Parent = scope.index, scope.rootID
		if scope.index < captureRequests && (kind == "phase1" || kind == "phase2") {
			call.capture = new(bytes.Buffer)
		}
	}
	call.span.StartNS = e.rec.now()
	return context.WithValue(ctx, traceKey{}, call), call
}

func (e *spanEndpoint) end(call *remoteCall, err error) {
	call.span.EndNS = e.rec.now()
	call.span.Bytes = call.bytes.Load()
	if err != nil {
		call.span.Err = err.Error()
	}
	e.rec.add(call.span)
	if call.capture != nil && err == nil {
		e.rec.mu.Lock()
		e.rec.bodies[call.span.Request] = append(e.rec.bodies[call.span.Request], call.capture.Bytes())
		e.rec.mu.Unlock()
	}
}

func (e *spanEndpoint) Query(ctx context.Context, query string) (*lusail.Results, error) {
	kind := classify(query)
	if e.rec.harvesting.Load() {
		kind = "harvest"
	}
	ctx, call := e.begin(ctx, kind)
	res, err := e.inner.Query(ctx, query)
	if res != nil {
		call.span.Rows = res.Len()
	}
	e.end(call, err)
	return res, err
}

// DataVersion makes the decorator transparent to the coherence
// fence's probe and records the probe as a remote span of its own.
func (e *spanEndpoint) DataVersion(ctx context.Context) (uint64, error) {
	ctx, call := e.begin(ctx, "version")
	v, err := e.inner.(interface {
		DataVersion(context.Context) (uint64, error)
	}).DataVersion(ctx)
	e.end(call, err)
	return v, err
}

// spanTransport counts (and for captured requests keeps) the response
// bytes of the remote call named in the request's context.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if call, ok := req.Context().Value(traceKey{}).(*remoteCall); ok && err == nil {
		resp.Body = &spanBody{ReadCloser: resp.Body, call: call}
	}
	return resp, err
}

type spanBody struct {
	io.ReadCloser
	call *remoteCall
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.call.bytes.Add(int64(n))
	if b.call.capture != nil {
		b.call.capture.Write(p[:n])
	}
	return n, err
}

// inProcess is the served configuration rebuilt through the public
// lusail API over the same loopback endpoint servers: observability,
// resilience, statistics, subquery cache, coherence enforce/window 0.
// With a recorder every endpoint is wrapped in a spanEndpoint.
func inProcess(ctx context.Context, env *environment, rec *recorder) (*lusail.Federation, error) {
	var transport http.RoundTripper = lusail.NewHTTPTransport(lusail.TransportConfig{})
	if rec != nil {
		transport = spanTransport{transport}
	}
	var eps []lusail.Endpoint
	for _, u := range env.urls() {
		var ep lusail.Endpoint = lusail.ConnectHTTP(u, u, lusail.WithHTTPTransport(transport))
		if rec != nil {
			ep = &spanEndpoint{inner: ep, rec: rec}
		}
		eps = append(eps, ep)
	}
	reg := lusail.NewMetricsRegistry()
	qlog := lusail.NewQueryLog(lusail.QueryLogConfig{
		Logger:        slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn})),
		SlowThreshold: 500 * time.Millisecond,
		RingSize:      128,
		Registry:      reg,
	})
	fed := lusail.New(eps,
		lusail.WithObservability(qlog),
		lusail.WithResilience(lusail.DefaultResilience()),
		lusail.WithSubqueryCache(512, time.Minute),
		lusail.WithStatistics(lusail.StatisticsConfig{}))
	fed.RegisterMetrics(reg)
	if rec != nil {
		rec.harvesting.Store(true)
		defer rec.harvesting.Store(false)
	}
	if err := fed.RefreshStatistics(ctx); err != nil {
		return nil, fmt.Errorf("statistics harvest: %w", err)
	}
	return fed, nil
}

// captured is one request's inputs to the encode replay.
type captured struct {
	vars []lusail.Var
	rows []lusail.Binding
}

// pass is the in-process replay of the traced slice: every request
// runs once through a plain federation and once through a traced one.
type pass struct {
	plain, traced []sample
	overheads     []float64        // traced/plain - 1, one per request that ran both ways
	metrics       []lusail.Metrics // per successful traced request
	texts         []string         // traced request texts, for the parse replay
	captured      []captured       // final rows of the first captureRequests traced requests
}

// inProcessQuery runs one request the way the server's streaming
// handler does and checks the answer after the clock has stopped.
func inProcessQuery(ctx context.Context, fed *lusail.Federation, text string, exp expected) (captured, lusail.Metrics, sample) {
	var got captured
	var smp sample
	start := time.Now()
	res, m, _, err := fed.QueryStreamTraced(ctx, text, func(vars []lusail.Var, rows []lusail.Binding) error {
		if smp.firstRow == 0 {
			smp.firstRow = time.Since(start)
		}
		got.vars = vars
		got.rows = append(got.rows, rows...)
		return nil
	})
	smp.total = time.Since(start)
	if err != nil {
		smp.err = err
		return got, m, smp
	}
	if got.vars == nil {
		got.vars = res.Vars
	}
	full := *res
	full.Rows, full.Streamed = got.rows, 0
	var doc bytes.Buffer
	if err := full.EncodeJSON(&doc); err != nil {
		smp.err = err
	} else {
		smp.err = exp.matches(&doc)
	}
	return got, m, smp
}

// runPass replays the first tracedSlice requests (or as many as fit in
// budget) with the workload's churn beside them, after the warm-up the
// served path gets. Request j goes through both federations, the two
// sides alternating who goes first, so with two clients the plain and
// the traced execution of a request run side by side under the same
// load; their latency ratio is the tracing overhead.
func runPass(ctx context.Context, cfg config, s *served, rec *recorder, budget time.Duration) (*pass, error) {
	w := s.env.w
	plainFed, err := inProcess(ctx, s.env, nil)
	if err != nil {
		return nil, err
	}
	tracedFed, err := inProcess(ctx, s.env, rec)
	if err != nil {
		return nil, err
	}
	for _, fed := range []*lusail.Federation{plainFed, tracedFed} {
		for q := range w.queries {
			_, _, smp := inProcessQuery(ctx, fed, s.reqs.textOf(q, warmNonce+int64(q)), s.env.answers[q])
			if smp.err != nil {
				return nil, fmt.Errorf("in-process warm-up %s: %w", w.queries[q].name, smp.err)
			}
		}
	}

	p := &pass{captured: make([]captured, captureRequests)}
	durs := make([][2]time.Duration, tracedSlice) // [plain, traced] per request, 0 = not run or failed
	var mu sync.Mutex
	stopChurn := startChurn(s.env, s.seed)
	closedLoop(cfg.clients, time.Now().Add(budget), 2*tracedSlice, func(i int) sample {
		j := i / 2
		traced := (i%2 == 1) != (j%2 == 1)
		q, text := s.reqs.at(j)
		if !traced {
			_, _, smp := inProcessQuery(ctx, plainFed, text, s.env.answers[q])
			smp.query = q
			mu.Lock()
			defer mu.Unlock()
			p.plain = append(p.plain, smp)
			if smp.err == nil {
				durs[j][0] = smp.total
			}
			return smp
		}
		root := span{Workload: rec.workload, Request: j, ID: rec.id(), Name: "query",
			Kind: w.queries[q].name, StartNS: rec.now()}
		rctx := context.WithValue(ctx, traceKey{}, requestScope{index: j, rootID: root.ID})
		got, m, smp := inProcessQuery(rctx, tracedFed, text, s.env.answers[q])
		smp.query = q
		root.EndNS = root.StartNS + int64(smp.total)
		root.Rows = len(got.rows)
		if smp.err != nil {
			root.Err = smp.err.Error()
		}
		rec.add(root)
		at := root.StartNS
		for _, ph := range []struct {
			kind string
			d    time.Duration
		}{{"source_selection", m.SourceSelection}, {"analysis", m.Analysis}, {"execution", m.Execution}} {
			rec.add(span{Workload: rec.workload, Request: j, ID: rec.id(), Parent: root.ID,
				Name: "phase", Kind: ph.kind, StartNS: at, EndNS: at + int64(ph.d)})
			at += int64(ph.d)
		}
		mu.Lock()
		defer mu.Unlock()
		p.traced = append(p.traced, smp)
		p.texts = append(p.texts, text)
		if smp.err == nil {
			durs[j][1] = smp.total
			p.metrics = append(p.metrics, m)
			if j < captureRequests {
				p.captured[j] = got
			}
		}
		return smp
	})
	stopChurn()
	for _, d := range durs {
		if d[0] > 0 && d[1] > 0 {
			p.overheads = append(p.overheads, float64(d[1])/float64(d[0])-1)
		}
	}
	return p, nil
}

// runPerLayer is the traced run: a served section for the counters
// only the real server and the endpoint servers have (S and E
// sources), then the in-process slice plain and traced (T), then the
// replays of what the traced requests captured (R).
func runPerLayer(ctx context.Context, cfg config, w *workload, seed int64) (result, runDetail, []span, error) {
	fail := func(err error) (result, runDetail, []span, error) { return result{}, runDetail{}, nil, err }
	s, err := setUp(ctx, cfg, w, seed)
	if err != nil {
		return fail(err)
	}
	defer s.close()

	total := time.Duration(cfg.seconds * float64(time.Second))
	t, err := s.run(cfg.clients, total/2)
	if err != nil {
		return fail(err)
	}
	// The child idles from here on; only the endpoint servers are shared.
	rec := newRecorder(w.name)
	p, err := runPass(ctx, cfg, s, rec, total/2)
	if err != nil {
		return fail(err)
	}

	values := layerValues(t, rec, p, cfg.procs)

	failures := failed(t.samples, p.plain, p.traced)
	attempted := len(t.samples) + len(p.plain) + len(p.traced)
	detail := runDetail{Requests: attempted, WallS: t.wall.Seconds(), Samples: map[string]int{
		"served_requests": len(t.samples), "plain_requests": len(p.plain),
		"traced_requests": len(p.traced), "overhead_pairs": len(p.overheads),
		"spans": len(rec.spans), "captured_requests": len(rec.bodies),
	}, Failures: describe(w, failures)}
	res, detail, err := finish(perLayer, values, attempted, len(failures), detail)
	return res, detail, rec.spans, err
}

// layerValues computes every per-layer metric of one traced run.
func layerValues(t *timedSection, rec *recorder, p *pass, workers int) map[string]float64 {
	values := map[string]float64{"bench.trace_overhead_pct": 100 * median(p.overheads)}
	servedLayerMetrics(values, t)
	spanLayerMetrics(values, rec.spans, p.metrics)
	replayLayerMetrics(values, p, rec.bodies, workers)
	return values
}

// ratio is a/b, 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// servedLayerMetrics fills the S (child /metrics delta and /proc) and E
// (endpoint-server middleware) metrics from a served section.
func servedLayerMetrics(values map[string]float64, t *timedSection) {
	m := t.metrics
	n := float64(len(t.samples))
	cache := func(name string) (hits, lookups float64) {
		hits = sumSeries(m, "lusail_cache_hits_total", `cache="`+name+`"`)
		return hits, hits + sumSeries(m, "lusail_cache_misses_total", `cache="`+name+`"`)
	}
	sqHits, sqLookups := cache("subquery")
	var planHits, planLookups float64
	for _, c := range []string{"ask", "check", "count"} {
		h, l := cache(c)
		planHits, planLookups = planHits+h, planLookups+l
	}
	var probes float64
	for _, k := range []string{"ask", "check", "count"} {
		probes += sumSeries(m, "lusail_remote_requests_total", `kind="`+k+`"`)
	}
	answers := sumSeries(m, "lusail_stats_answers_total")

	values["endpoint.retries"] = sumSeries(m, "lusail_endpoint_retries_total")
	values["core.cache.subquery_hit_ratio"] = ratio(sqHits, sqLookups)
	values["core.cache.plan_hit_ratio"] = ratio(planHits, planLookups)
	values["stats.answer_ratio"] = ratio(answers, answers+probes)
	values["stats.lookup_fenced"] = sumSeries(m, "lusail_stats_lookup_fenced_total")
	values["core.coherence.fenced"] = sumSeries(m, "lusail_cache_fenced_total")
	values["core.coherence.changes"] = sumSeries(m, "lusail_coherence_changes_total")
	values["server.singleflight_collapsed_share"] = ratio(sumSeries(m, "lusail_server_singleflight_collapsed_total"), n)
	values["server.shed"] = sumSeries(m, "lusail_shed_requests_total")
	values["server.peak_rss_mb"] = t.peakRSS
	values["store.eval_ms"] = ratio(float64(t.wire.handler)/float64(time.Millisecond), n)
	values["core.coherence.probes_per_query"] = ratio(float64(t.wire.probes), n)
}

// spanLayerMetrics fills the T metrics: per traced request, the
// engine's own phase split, remote calls by kind, and the time the
// request spent with at least one remote call outstanding (the union
// of its remote spans) against the rest (the root span's self time).
func spanLayerMetrics(values map[string]float64, spans []span, metrics []lusail.Metrics) {
	roots := map[int]span{}
	remotes := map[int][]interval{}
	kinds := map[string]float64{}
	var remoteMS []float64
	for _, s := range spans {
		switch {
		case s.Name == "query":
			roots[s.Request] = s
		case s.Name == "remote" && s.Request >= 0:
			remotes[s.Request] = append(remotes[s.Request], s.interval())
			kinds[s.Kind]++
			if s.Kind != "version" {
				remoteMS = append(remoteMS, float64(s.EndNS-s.StartNS)/1e6)
			}
		}
	}
	var wait, self, span float64
	for req, root := range roots {
		w := unionLength(remotes[req], root.StartNS, root.EndNS)
		wait += float64(w)
		self += float64(selfTime(root.interval(), remotes[req]))
		span += float64(root.EndNS - root.StartNS)
	}
	n := float64(len(roots))
	values["endpoint.wait_ms"] = ratio(wait/1e6, n)
	values["endpoint.wait_share"] = ratio(wait, span)
	values["core.self_ms"] = ratio(self/1e6, n)
	sort.Float64s(remoteMS)
	values["endpoint.request_p50_ms"] = percentile(remoteMS, 50)
	values["federation.ask_requests"] = ratio(kinds["ask"], n)
	values["core.lade.check_requests"] = ratio(kinds["check"], n)
	values["core.cost.count_requests"] = ratio(kinds["count"], n)
	values["core.sape.phase1_requests"] = ratio(kinds["phase1"], n)
	values["core.sape.phase2_requests"] = ratio(kinds["phase2"], n)

	var sel, ana, exe time.Duration
	var delayed, subqueries float64
	for _, m := range metrics {
		sel, ana, exe = sel+m.SourceSelection, ana+m.Analysis, exe+m.Execution
		delayed, subqueries = delayed+float64(m.Delayed), subqueries+float64(m.Subqueries)
	}
	ms := func(d time.Duration) float64 {
		return ratio(float64(d)/float64(time.Millisecond), float64(len(metrics)))
	}
	values["federation.select_ms"] = ms(sel)
	values["core.analysis_ms"] = ms(ana)
	values["core.sape.exec_ms"] = ms(exe)
	values["core.sape.delayed_share"] = ratio(delayed, subqueries)
}

// replayReps is how often each replay runs; the median is reported.
const replayReps = 3

// timeAndAllocs runs f replayReps times and returns the median
// duration and the heap allocations of one run.
func timeAndAllocs(f func()) (time.Duration, float64) {
	var ms runtime.MemStats
	durs := make([]float64, replayReps)
	var mallocs uint64
	for i := range durs {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		f()
		durs[i] = float64(time.Since(start))
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - before
	}
	return time.Duration(median(durs)), float64(mallocs)
}

// replayLayerMetrics fills the R metrics: each layer's public function
// run alone over the inputs the traced pass captured. The numbers are
// per captured request, except parse, which is per request text.
func replayLayerMetrics(values map[string]float64, p *pass, bodies map[int][][]byte, workers int) {
	parse, _ := timeAndAllocs(func() {
		for _, text := range p.texts {
			sparql.Parse(text) // every text already parsed once on its way through the engine
		}
	})
	values["sparql.parse_us"] = ratio(float64(parse)/float64(time.Microsecond), float64(len(p.texts)))

	n := float64(len(bodies))
	perRequest := func(d time.Duration) float64 { return ratio(float64(d)/float64(time.Millisecond), n) }

	var decodedRows float64
	relations := map[int][]*core.Relation{}
	decode, decodeAllocs := timeAndAllocs(func() {
		decodedRows = 0
		for req, bs := range bodies {
			var results []*sparql.Results
			for _, b := range bs {
				res, err := sparql.DecodeJSONStream(bytes.NewReader(b))
				if err != nil {
					continue // the traced request already failed on it
				}
				decodedRows += float64(res.Len())
				results = append(results, res)
			}
			relations[req] = relationsOf(results)
		}
	})
	values["sparql.decode_ms"] = perRequest(decode)
	values["sparql.decode_allocs_per_row"] = ratio(decodeAllocs, decodedRows)

	encode, _ := timeAndAllocs(func() {
		for _, c := range p.captured {
			enc := sparql.NewJSONRowEncoder(io.Discard)
			enc.Rows(c.vars, c.rows) // io.Discard cannot fail
			enc.Close(c.vars)
		}
	})
	values["sparql.encode_ms"] = perRequest(encode)

	var joinedRows float64
	join, joinAllocs := timeAndAllocs(func() {
		joinedRows = 0
		for _, rels := range relations {
			joinedRows += float64(joinAll(rels, workers))
		}
	})
	values["core.join_ms"] = perRequest(join)
	values["core.join_allocs_per_row"] = ratio(joinAllocs, joinedRows)
}

// relationsOf groups one request's decoded subquery responses into
// relations: responses with the same variables are the same subquery
// answered by different endpoints (or different VALUES blocks).
func relationsOf(results []*sparql.Results) []*core.Relation {
	byVars := map[string]*core.Relation{}
	var order []string
	for _, res := range results {
		vars := append([]sparql.Var(nil), res.Vars...)
		sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
		key := fmt.Sprint(vars)
		rel := byVars[key]
		if rel == nil {
			rel = &core.Relation{Vars: vars}
			byVars[key] = rel
			order = append(order, key)
		}
		rel.Rows = append(rel.Rows, res.Rows...)
		rel.Partitions++
	}
	out := make([]*core.Relation, len(order))
	for i, key := range order {
		out[i] = byVars[key]
	}
	return out
}

// joinAll folds the relations in the order core.OptimizeJoinOrder
// picks, skipping any that shares no variable with the result so far
// (the replay must not invent a cross product the engine never ran).
// It returns the rows the joins produced.
func joinAll(rels []*core.Relation, workers int) int {
	if len(rels) < 2 {
		return 0
	}
	order := core.OptimizeJoinOrder(rels)
	acc := rels[order[0]]
	produced := 0
	for _, i := range order[1:] {
		if len(acc.SharedVars(rels[i])) == 0 {
			continue
		}
		acc = core.HashJoin(acc, rels[i], workers)
		produced += len(acc.Rows)
	}
	return produced
}
