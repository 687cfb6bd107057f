package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"lusail"
	"lusail/internal/endpoint"
	"lusail/internal/sparql"
)

// serverConfig tunes the daemon.
type serverConfig struct {
	// Logger receives the structured query log and server events (nil
	// = slog.Default).
	Logger *slog.Logger
	// SlowThreshold marks queries at or above this duration as slow:
	// captured with span trees in /debug/queries, and always kept by
	// the trace tail sampler.
	SlowThreshold time.Duration
	// QueryTimeout bounds each federated query (0 = no limit).
	QueryTimeout time.Duration
	// MaxRequestBytes caps SPARQL protocol POST bodies; oversized
	// requests get 413. 0 selects the endpoint package's default cap;
	// negative disables the cap.
	MaxRequestBytes int64
	// Resilience, when non-nil, enables the endpoint fault-tolerance
	// layer (retries + circuit breakers).
	Resilience *lusail.ResilienceConfig
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool

	// MaxConcurrent bounds concurrently executing queries (0 = no
	// limit). Excess requests wait in a bounded queue and are shed
	// with 503 + Retry-After when the queue is full or QueueWait
	// expires.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a query slot (0 = no queue:
	// a request finding every slot busy is shed at once). The defaults
	// live on the -max-queue / -queue-wait flags.
	MaxQueue int
	// QueueWait bounds how long a request may wait for a slot (0 = no
	// wait).
	QueueWait time.Duration

	// Degradation selects the federation's degraded-execution policy.
	Degradation lusail.DegradePolicy
	// QueryBudget is the per-query wall-clock budget (0 = none).
	QueryBudget time.Duration

	// SubqueryCacheSize enables the persistent cross-query subquery
	// result cache with at most this many entries (0 disables it).
	SubqueryCacheSize int
	// SubqueryCacheTTL bounds cached subquery staleness (0 = forever).
	// Only meaningful with SubqueryCacheSize > 0.
	SubqueryCacheTTL time.Duration

	// Statistics enables the offline statistics service: summaries are
	// harvested at startup (and every StatsRefresh thereafter) so
	// warmed queries plan without endpoint probes.
	Statistics bool
	// StatsRefresh is the background re-harvest interval (0 = harvest
	// once at startup only). Only meaningful with Statistics.
	StatsRefresh time.Duration
	// StatsCalibrate arms the self-tuning calibration loop feeding
	// estimated-vs-actual cardinalities back into the cost model.
	StatsCalibrate bool

	// OTLPEndpoint, when non-empty, enables distributed trace export:
	// every query records a W3C-identified span tree, tail-sampled
	// (slow/errored/degraded always kept) and shipped to this OTLP/HTTP
	// collector base URL in batches.
	OTLPEndpoint string
	// ServiceName is the resource service.name stamped on exported
	// spans (default "lusail-server").
	ServiceName string
	// TraceSample, when non-nil, is the head-sampling ratio for
	// locally-rooted traces (nil = sample all; 0 leaves retention to
	// the tail rules). Inbound traceparent requests keep the caller's
	// sampled flag.
	TraceSample *float64
}

// server is the lusail-server daemon: a federation plus its
// operational surface (SPARQL protocol, metrics, health, readiness,
// query-log debug).
type server struct {
	fed    *lusail.Federation
	reg    *lusail.MetricsRegistry
	qlog   *lusail.QueryLog
	logger *slog.Logger
	cfg    serverConfig

	exporter *lusail.SpanExporter // nil without -otlp-endpoint
	sink     lusail.TraceSink     // tail sampler → exporter; nil without export

	mux *http.ServeMux
	adm *admission
	sf  *singleflight
	// policyKey folds the server's execution policy into singleflight
	// keys, so deployments proxying multiple policy tiers never share.
	policyKey string
	probed    atomic.Bool // initial source probing complete
}

// newServer wires the observability stack around a federation over
// eps and builds the HTTP surface.
func newServer(eps []lusail.Endpoint, cfg serverConfig) *server {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	reg := lusail.NewMetricsRegistry()
	qlog := lusail.NewQueryLog(lusail.QueryLogConfig{
		Logger:        logger,
		SlowThreshold: cfg.SlowThreshold,
		Registry:      reg,
	})
	opts := []lusail.Option{lusail.WithObservability(qlog)}
	if cfg.Resilience != nil {
		opts = append(opts, lusail.WithResilience(*cfg.Resilience))
	}
	if cfg.Degradation != lusail.DegradeFail {
		opts = append(opts, lusail.WithDegradation(cfg.Degradation))
	}
	if cfg.QueryBudget > 0 {
		opts = append(opts, lusail.WithQueryBudget(cfg.QueryBudget))
	}
	if cfg.SubqueryCacheSize > 0 {
		opts = append(opts, lusail.WithSubqueryCache(cfg.SubqueryCacheSize, cfg.SubqueryCacheTTL))
	}
	if cfg.Statistics {
		opts = append(opts, lusail.WithStatistics(lusail.StatisticsConfig{Calibrate: cfg.StatsCalibrate}))
	}
	if cfg.TraceSample != nil {
		opts = append(opts, lusail.WithTraceSampling(*cfg.TraceSample))
	}
	fed := lusail.New(eps, opts...)
	fed.RegisterMetrics(reg)

	adm := newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueWait)
	adm.register(reg)

	s := &server{fed: fed, reg: reg, qlog: qlog, logger: logger, cfg: cfg, adm: adm}

	// Trace export chain: tail sampler in front of the OTLP exporter.
	// Slow, errored, and degraded traces are always kept; head-sampled
	// traces (WithTraceSampling) flow through as usual.
	if cfg.OTLPEndpoint != "" {
		service := cfg.ServiceName
		if service == "" {
			service = "lusail-server"
		}
		s.exporter = lusail.NewSpanExporter(lusail.ExporterConfig{
			Endpoint: cfg.OTLPEndpoint,
			Service:  service,
			Logger:   logger,
		})
		s.exporter.Register(reg)
		sampler := lusail.NewTraceSampler(lusail.SamplerConfig{
			SlowThreshold: cfg.SlowThreshold,
			KeepErrors:    true,
			KeepDegraded:  true,
			Next:          s.exporter,
		})
		sampler.Register(reg)
		s.sink = sampler
	}

	s.sf = newSingleflight()
	s.sf.register(reg)
	s.policyKey = fmt.Sprintf("degrade=%d;budget=%s;timeout=%s",
		cfg.Degradation, cfg.QueryBudget, cfg.QueryTimeout)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/sparql", s.handleQuery)
	s.mux.Handle("/metrics", reg.Handler())
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.Handle("/debug/queries", qlog.DebugHandler())
	s.mux.HandleFunc("/debug/invalidate", s.handleInvalidate)
	s.mux.HandleFunc("/debug/stats", s.handleStats)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// probe runs the initial source probing: one ASK against every
// endpoint, in parallel, to warm connections and surface dead
// endpoints at startup. /readyz reports 503 until probing completes
// (probe failures are logged but do not block readiness forever — the
// breakers own steady-state health).
func (s *server) probe(ctx context.Context) {
	eps := s.fed.Endpoints()
	done := make(chan struct{}, len(eps))
	for _, ep := range eps {
		ep := ep
		go func() {
			defer func() { done <- struct{}{} }()
			pctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			if _, err := ep.Query(pctx, "ASK { ?s ?p ?o }"); err != nil {
				s.logger.Warn("startup probe failed", "endpoint", ep.Name(), "err", err)
				return
			}
			s.logger.Info("startup probe ok", "endpoint", ep.Name())
		}()
	}
	for range eps {
		<-done
	}
	s.probed.Store(true)
	s.logger.Info("initial source probing complete", "endpoints", len(eps))
}

// handleHealth is the liveness probe: the process is up and serving.
// The body carries per-endpoint detail (breaker state per endpoint)
// as JSON, so a partially degraded federation is visible here even
// while /readyz keeps routing traffic to the survivors.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	type epHealth struct {
		Name    string `json:"name"`
		Breaker string `json:"breaker,omitempty"`
	}
	states := s.fed.BreakerStates()
	out := struct {
		Status    string     `json:"status"`
		Probed    bool       `json:"probed"`
		Endpoints []epHealth `json:"endpoints"`
	}{Status: "ok", Probed: s.probed.Load()}
	byName := map[string]lusail.BreakerState{}
	for _, b := range states {
		byName[b.Name] = b.State
	}
	for _, ep := range s.fed.Endpoints() {
		h := epHealth{Name: ep.Name()}
		if st, ok := byName[ep.Name()]; ok {
			h.Breaker = breakerName(st)
		}
		out.Endpoints = append(out.Endpoints, h)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

func breakerName(st lusail.BreakerState) string {
	switch st {
	case lusail.BreakerOpen:
		return "open"
	case lusail.BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// handleReady is the readiness probe: 503 while initial source probing
// is incomplete, while EVERY endpoint's circuit breaker is open
// (nothing left to answer from), or under sustained admission
// saturation. One rule for every degradation policy: a partially
// degraded federation stays ready, since cached source-selection facts
// and (under skip-endpoint / best-effort) the survivors still answer,
// and /healthz names the open breakers. A breaker past its cooldown
// reads half-open, so readiness returns without traffic, and the first
// routed query is the probe that closes or re-opens the circuit.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.probed.Load() {
		http.Error(w, "not ready: initial source probing incomplete", http.StatusServiceUnavailable)
		return
	}
	if s.adm.saturated() {
		http.Error(w, "not ready: admission queue saturated", http.StatusServiceUnavailable)
		return
	}
	states := s.fed.BreakerStates()
	open := 0
	for _, b := range states {
		if b.State == lusail.BreakerOpen {
			open++
		}
	}
	if len(states) > 0 && open == len(states) {
		http.Error(w, "not ready: all endpoint circuit breakers open", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleQuery serves the SPARQL protocol for federated queries
// (endpoint.DecodeQueryRequest reads the request) and streams the
// results in the format the Accept header names: JSON by default, XML,
// CSV or TSV.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	query, ok := endpoint.DecodeQueryRequest(w, r, s.cfg.MaxRequestBytes, "GET, POST")
	if !ok {
		return
	}

	// A syntactically invalid query is the client's fault: reject it
	// with 400 before it reaches the engine (mirroring the SPARQL
	// protocol's MalformedQuery distinction). The parsed form doubles
	// as the singleflight canonicalization below.
	q, perr := sparql.Parse(query)
	if perr != nil {
		http.Error(w, perr.Error(), http.StatusBadRequest)
		return
	}

	// Admission control: take a query slot (waiting briefly in the
	// bounded queue) or shed the request so overload turns into fast
	// 503s instead of unbounded queueing.
	release, ok := s.adm.acquire(r.Context())
	if !ok {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server overloaded, retry later", http.StatusServiceUnavailable)
		return
	}
	defer release()

	// r.Context() so a client disconnect cancels the federated query:
	// the engine's streaming executor aborts its in-flight subqueries
	// and the admission slot frees as soon as the handler returns.
	// An inbound W3C traceparent joins the caller's distributed trace:
	// this query's spans carry the caller's trace ID and the federation
	// produces one stitched trace across processes.
	ctx := lusail.ExtractTraceContext(r.Context(), r.Header)
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}

	format := sparql.Negotiate(r.Header.Get("Accept"))

	// Singleflight: collapse identical concurrent queries onto one
	// engine execution. The key is the canonicalized query text (two
	// spellings of one query collapse) plus the policy context.
	key := q.String() + "\x00" + s.policyKey
	f, follower := s.sf.join(key)
	if !follower {
		// Leader: stream to this client as usual while materializing
		// the result for the followers.
		res, err := s.streamQuery(w, ctx, query, format, true)
		s.sf.finish(key, f, res, err)
		return
	}
	select {
	case <-ctx.Done():
		return
	case <-f.done:
	}
	if f.err != nil {
		// The leader's failure (possibly its own client hanging up and
		// cancelling its context) is not this request's failure: run
		// the query independently.
		s.streamQuery(w, ctx, query, format, false)
		return
	}
	// Replay the leader's rows through this request's own writer.
	s.stream(w, format, func(onChunk chunkSink) (*lusail.Results, error) {
		if !f.res.AskForm {
			if err := onChunk(f.res.Vars, f.res.Rows); err != nil {
				return nil, err
			}
		}
		return f.res, nil
	})
}

// handleInvalidate is the admin cache-invalidation hook: POST with an
// optional form/query parameter endpoint=<name> drops the cached
// planning decisions and subquery results depending on that endpoint;
// without it, every engine cache is cleared. In-flight computations
// complete for their waiters but are not re-stored.
func (s *server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	target := r.Form.Get("endpoint")
	scope := "all"
	if target == "" {
		s.fed.InvalidateCaches()
	} else {
		found := false
		for _, ep := range s.fed.Endpoints() {
			if ep.Name() == target {
				found = true
				break
			}
		}
		if !found {
			http.Error(w, fmt.Sprintf("unknown endpoint %q", target), http.StatusNotFound)
			return
		}
		s.fed.InvalidateEndpointCaches(target)
		scope = target
	}
	s.logger.Info("caches invalidated", "scope", scope)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Invalidated string `json:"invalidated"`
	}{Invalidated: scope})
}

// handleStats is the statistics service's debug surface: GET returns
// the counter snapshot as JSON; POST re-harvests every endpoint's
// summary first (the admin hook after a known bulk load), then returns
// the fresh snapshot.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		if !s.cfg.Statistics {
			http.Error(w, "statistics service disabled (start with -stats)", http.StatusConflict)
			return
		}
		if err := s.fed.RefreshStatistics(r.Context()); err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Enabled     bool                   `json:"enabled"`
		Calibrating bool                   `json:"calibrating"`
		Stats       lusail.StatisticsStats `json:"stats"`
	}{Enabled: s.cfg.Statistics, Calibrating: s.cfg.StatsCalibrate, Stats: s.fed.StatisticsStats()})
}

// refreshStats runs the statistics service's background harvest loop:
// one harvest at startup (so the first queries already plan from
// summaries), then one every StatsRefresh until shutdown. Harvest
// failures are logged and retried at the next tick — the engine just
// keeps probing endpoints for whatever summaries are missing.
func (s *server) refreshStats(ctx context.Context) {
	harvest := func() {
		hctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		defer cancel()
		if err := s.fed.RefreshStatistics(hctx); err != nil {
			s.logger.Warn("statistics harvest failed", "err", err)
			return
		}
		st := s.fed.StatisticsStats()
		s.logger.Info("statistics harvested",
			"summaries", st.Summaries, "harvest_queries", st.HarvestQueries)
	}
	harvest()
	if s.cfg.StatsRefresh <= 0 {
		return
	}
	t := time.NewTicker(s.cfg.StatsRefresh)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			harvest()
		}
	}
}

// streamQuery executes one query, streaming its result to w in format
// f. With materialize set (singleflight leaders), the streamed rows
// are also kept and the returned Results carries them, so collapsed
// followers can replay the full result; otherwise the returned Results
// is the engine's summary (row count only).
func (s *server) streamQuery(w http.ResponseWriter, ctx context.Context, query string, f sparql.Format, materialize bool) (*lusail.Results, error) {
	var kept []lusail.Binding
	res, err := s.stream(w, f, func(onChunk chunkSink) (*lusail.Results, error) {
		res, _, tr, err := s.fed.QueryStreamTraced(ctx, query,
			func(vars []lusail.Var, rows []lusail.Binding) error {
				if materialize {
					kept = append(kept, rows...)
				}
				return onChunk(vars, rows)
			})
		if tr != nil {
			// The terminal error goes on the root span (the tail
			// sampler always keeps errored traces), and the trace to
			// the export chain.
			if err != nil {
				tr.Root.Set("error", err.Error())
			}
			if s.sink != nil {
				s.sink.ExportTrace(tr)
			}
			w.Header().Set("X-Lusail-Trace-Id", tr.ID().String())
		}
		return res, err
	})
	if err != nil || !materialize {
		return res, err
	}
	full := *res
	full.Rows, full.Streamed = kept, 0
	return &full, nil
}

// chunkSink receives one chunk of solution rows.
type chunkSink = func(vars []lusail.Var, rows []lusail.Binding) error

// stream writes one result to w in format f with chunked transfer:
// run delivers solution chunks through onChunk, each written and
// flushed as it lands, so clients see first solutions while phase-2
// subqueries are still in flight, and returns the result summary.
// Because the status line is gone after the first flush, end-of-stream
// conditions travel as HTTP trailers: X-Lusail-Trace-Id names the
// query's trace, X-Lusail-Partial-Results marks degraded completeness,
// and X-Lusail-Error carries a mid-stream failure on a truncated
// document.
func (s *server) stream(w http.ResponseWriter, f sparql.Format, run func(onChunk chunkSink) (*lusail.Results, error)) (*lusail.Results, error) {
	// Trailers must be declared before the first byte of the body.
	w.Header().Set("Trailer", "X-Lusail-Partial-Results, X-Lusail-Error, X-Lusail-Trace-Id")
	w.Header().Set("Content-Type", f.MediaType)
	flusher, canFlush := w.(http.Flusher)
	rw := f.NewWriter(w)
	res, err := run(func(vars []lusail.Var, rows []lusail.Binding) error {
		if err := rw.Rows(vars, rows); err != nil {
			return err
		}
		if canFlush {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		if !rw.Started() {
			// Nothing written yet: a clean HTTP error is still possible.
			w.Header().Del("Trailer")
			w.Header().Del("Content-Type")
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return nil, err
		}
		w.Header().Set("X-Lusail-Error", err.Error())
		s.logger.Debug("stream failed mid-response", "err", err)
		return nil, err
	}
	// Close writes a valid empty document when no chunk ever arrived;
	// an ASK result is its boolean document.
	if res.AskForm {
		err = rw.Boolean(res.Ask)
	} else {
		err = rw.Close(res.Vars)
	}
	if err != nil {
		// The result itself is complete; only this client's connection
		// failed. Followers can still replay it.
		s.logger.Debug("stream close failed", "err", err)
	}
	// Trailer values are picked up from the header map after the body.
	if c := res.Completeness; c != nil && !c.Complete {
		w.Header().Set("X-Lusail-Partial-Results", "true")
	}
	return res, nil
}

// listen opens the daemon's listener.
func (s *server) listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// serve runs the HTTP server on ln until ctx is cancelled, then
// gracefully drains in-flight queries for up to drain before closing.
// The server is configured with read-header/read/idle timeouts so a
// slowloris client cannot pin connections open.
func (s *server) serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          slog.NewLogLogger(s.logger.Handler(), slog.LevelWarn),
	}
	go s.probe(ctx)
	if s.cfg.Statistics {
		go s.refreshStats(ctx)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	s.logger.Info("lusail-server listening", "addr", ln.Addr().String(),
		"endpoints", len(s.fed.Endpoints()))

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	s.logger.Info("shutting down: draining in-flight queries", "drain", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		s.logger.Warn("drain incomplete, closing", "err", err)
		return err
	}
	if s.exporter != nil {
		// Ship whatever the trace queue still holds inside the remaining
		// drain budget; dropped batches are already accounted in the
		// lusail_trace_export_* counters.
		if err := s.exporter.Shutdown(dctx); err != nil {
			s.logger.Warn("trace exporter drain incomplete", "err", err)
		}
	}
	s.logger.Info("shutdown complete")
	return nil
}
