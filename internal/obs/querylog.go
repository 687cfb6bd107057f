package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/trace"
)

// QueryLogConfig tunes a QueryLog.
type QueryLogConfig struct {
	// Logger receives the structured start/finish events (nil =
	// slog.Default).
	Logger *slog.Logger
	// SlowThreshold marks queries at or above this duration as slow:
	// they are logged at Warn with their rendered span tree and kept
	// in the slow ring. Zero disables slow-query capture.
	SlowThreshold time.Duration
	// RingSize bounds each of the recent and slow ring buffers
	// (default 128).
	RingSize int
	// Registry, when non-nil, receives the query-level metric
	// families: lusail_queries_total, lusail_query_errors_total,
	// lusail_slow_queries_total, the lusail_query_duration_seconds
	// histogram, per-phase lusail_query_phase_seconds_total, and
	// per-kind lusail_remote_requests_total.
	Registry *Registry
	// MaxQueryLength truncates the query text stored in records and
	// log events (default 512; <0 disables truncation).
	MaxQueryLength int
}

// QueryRecord is one completed query as kept in the ring buffers and
// served by the /debug/queries handler.
type QueryRecord struct {
	ID         string    `json:"id"`
	Query      string    `json:"query"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	// Rows is -1 when the query failed before producing results.
	Rows         int `json:"rows"`
	Requests     int `json:"requests"`
	Retries      int `json:"retries,omitempty"`
	BreakerOpens int `json:"breaker_opens,omitempty"`
	// Degraded marks a query that returned partial results; Dropped is
	// the number of contributions its degraded execution gave up on.
	Degraded    bool    `json:"degraded,omitempty"`
	Dropped     int     `json:"dropped,omitempty"`
	Error       string  `json:"error,omitempty"`
	ErrorClass  string  `json:"error_class,omitempty"`
	Slow        bool    `json:"slow,omitempty"`
	SourceSelMs float64 `json:"source_selection_ms"`
	AnalysisMs  float64 `json:"analysis_ms"`
	ExecutionMs float64 `json:"execution_ms"`
	// SpanTree is the rendered execution trace, captured only for
	// slow queries of traced executions.
	SpanTree string `json:"span_tree,omitempty"`
	// TraceID and RootSpanID identify the query's distributed trace
	// (empty for untraced executions), so a /debug/queries or slow-ring
	// entry can be joined against the OTLP collector's view.
	TraceID    string `json:"trace_id,omitempty"`
	RootSpanID string `json:"root_span_id,omitempty"`
}

// QueryLog is the standard core.QueryLogger: it assigns correlation
// IDs, emits structured slog events at query start and finish,
// maintains bounded rings of recent and slow queries (the latter with
// rendered span trees), and feeds query-level metric families into a
// Registry. All methods are safe for concurrent use.
type QueryLog struct {
	logger  *slog.Logger
	slow    time.Duration
	maxQLen int

	seq    atomic.Uint64
	mu     sync.Mutex
	recent ring
	slowRB ring

	reg *Registry
}

var _ core.QueryLogger = (*QueryLog)(nil)

// NewQueryLog builds a QueryLog from cfg.
func NewQueryLog(cfg QueryLogConfig) *QueryLog {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	size := cfg.RingSize
	if size <= 0 {
		size = 128
	}
	maxQLen := cfg.MaxQueryLength
	if maxQLen == 0 {
		maxQLen = 512
	}
	q := &QueryLog{
		logger:  logger,
		slow:    cfg.SlowThreshold,
		maxQLen: maxQLen,
		recent:  ring{buf: make([]QueryRecord, size)},
		slowRB:  ring{buf: make([]QueryRecord, size)},
		reg:     cfg.Registry,
	}
	if q.reg != nil {
		// Pre-register the unlabeled query families so a scrape before
		// the first query already shows them at zero.
		q.reg.Counter("lusail_queries_total", "Federated queries executed.")
		q.reg.Counter("lusail_slow_queries_total", "Queries at or above the slow-query threshold.")
		q.reg.Counter("lusail_degraded_queries_total", "Queries that returned partial results under a degradation policy.")
		q.reg.Counter("lusail_dropped_endpoints_total", "Endpoint contributions dropped by degraded executions.")
		q.reg.Counter("lusail_values_chunk_splits_total", "VALUES block bisections forced by endpoint request limits or timeouts.")
		q.reg.Histogram("lusail_query_duration_seconds", "Federated query latency.", nil)
	}
	return q
}

// SlowThreshold reports the configured slow-query threshold.
func (q *QueryLog) SlowThreshold() time.Duration { return q.slow }

// QueryStarted implements core.QueryLogger: it assigns the correlation
// ID and logs the start event.
func (q *QueryLog) QueryStarted(query string) string {
	id := fmt.Sprintf("q%08d", q.seq.Add(1))
	q.logger.LogAttrs(context.Background(), slog.LevelInfo, "query start",
		slog.String("qid", id),
		slog.String("query", truncate(query, q.maxQLen)),
	)
	return id
}

// QueryFinished implements core.QueryLogger: it logs the finish event
// with the query's metrics and error class, records it in the recent
// ring, captures slow queries (with span tree) in the slow ring, and
// updates the registry's query-level families. The query's start and
// duration are its ended root span's; without a root span they fall
// back to the engine's own per-phase total.
func (q *QueryLog) QueryFinished(id, query string, m core.Metrics, rows int, err error, root *trace.Span) {
	start, dur := root.Start(), root.Duration()
	if root == nil {
		dur = m.Total()
		start = time.Now().Add(-dur)
	}

	cls := ErrorClass(err)
	rec := QueryRecord{
		ID:           id,
		Query:        truncate(query, q.maxQLen),
		Start:        start,
		DurationMs:   durMs(dur),
		Rows:         rows,
		Requests:     m.RemoteRequests(),
		Retries:      m.Retries,
		BreakerOpens: m.BreakerOpens,
		Degraded:     m.Completeness != nil && !m.Completeness.Complete,
		Dropped:      m.DroppedEndpoints,
		ErrorClass:   cls,
		SourceSelMs:  durMs(m.SourceSelection),
		AnalysisMs:   durMs(m.Analysis),
		ExecutionMs:  durMs(m.Execution),
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if !root.TraceID().IsZero() {
		rec.TraceID = root.TraceID().String()
		rec.RootSpanID = root.ID().String()
	}
	slow := q.slow > 0 && dur >= q.slow
	rec.Slow = slow

	attrs := []slog.Attr{
		slog.String("qid", id),
		slog.Duration("duration", dur),
		slog.Int("rows", rows),
		slog.Int("requests", m.RemoteRequests()),
		slog.Int("retries", m.Retries),
		slog.Duration("source_selection", m.SourceSelection),
		slog.Duration("analysis", m.Analysis),
		slog.Duration("execution", m.Execution),
	}
	if rec.TraceID != "" {
		attrs = append(attrs, slog.String("trace_id", rec.TraceID))
	}
	if rec.Degraded {
		attrs = append(attrs,
			slog.Bool("degraded", true),
			slog.Int("dropped", m.DroppedEndpoints),
			slog.String("completeness", m.Completeness.String()),
		)
	}
	level := slog.LevelInfo
	if err != nil {
		level = slog.LevelError
		attrs = append(attrs, slog.String("error", err.Error()), slog.String("error_class", cls))
	}
	q.logger.LogAttrs(context.Background(), level, "query finish", attrs...)

	if slow {
		rec.SpanTree = root.String() // "" for untraced executions (nil root)
		q.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
			slog.String("qid", id),
			slog.Duration("duration", dur),
			slog.Duration("threshold", q.slow),
			slog.String("query", rec.Query),
		)
	}

	q.mu.Lock()
	q.recent.push(rec)
	if slow {
		q.slowRB.push(rec)
	}
	q.mu.Unlock()

	if q.reg != nil {
		q.updateMetrics(m, dur, cls, slow, root)
	}
}

// updateMetrics projects one finished query into the registry's
// query-level families, including the core.Metrics phase timings and
// per-kind remote request counts. A sampled root links the latency
// histogram bucket and phase counters this query lands in to its
// trace as exemplars.
func (q *QueryLog) updateMetrics(m core.Metrics, dur time.Duration, cls string, slow bool, root *trace.Span) {
	q.reg.Counter("lusail_queries_total", "Federated queries executed.").Inc()
	if cls != "" {
		q.reg.Counter("lusail_query_errors_total", "Failed federated queries by error class.",
			L("class", cls)).Inc()
	}
	if slow {
		q.reg.Counter("lusail_slow_queries_total", "Queries at or above the slow-query threshold.").Inc()
	}
	if m.Completeness != nil && !m.Completeness.Complete {
		q.reg.Counter("lusail_degraded_queries_total", "Queries that returned partial results under a degradation policy.").Inc()
	}
	if m.DroppedEndpoints > 0 {
		q.reg.Counter("lusail_dropped_endpoints_total", "Endpoint contributions dropped by degraded executions.").Add(float64(m.DroppedEndpoints))
	}
	if m.ChunkSplits > 0 {
		q.reg.Counter("lusail_values_chunk_splits_total", "VALUES block bisections forced by endpoint request limits or timeouts.").Add(float64(m.ChunkSplits))
	}
	q.reg.Histogram("lusail_query_duration_seconds", "Federated query latency.", nil).
		ObserveWithExemplar(dur.Seconds(), trace.NewExemplar(root, dur.Seconds()))

	phase := func(name string, d time.Duration) {
		q.reg.Counter("lusail_query_phase_seconds_total",
			"Cumulative time spent per query-pipeline phase.", L("phase", name)).
			AddWithExemplar(d.Seconds(), trace.NewExemplar(root, d.Seconds()))
	}
	phase("source_selection", m.SourceSelection)
	phase("analysis", m.Analysis)
	phase("execution", m.Execution)

	kind := func(name string, n int) {
		if n == 0 {
			return
		}
		q.reg.Counter("lusail_remote_requests_total",
			"Remote requests issued by the federator, by request kind.", L("kind", name)).Add(float64(n))
	}
	kind("ask", m.AskRequests)
	kind("check", m.CheckQueries)
	kind("count", m.CountQueries)
	kind("phase1", m.Phase1Requests)
	kind("phase2", m.Phase2Requests)
}

// Recent returns the recent-query ring, newest first.
func (q *QueryLog) Recent() []QueryRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.recent.snapshot()
}

// Slow returns the slow-query ring, newest first.
func (q *QueryLog) Slow() []QueryRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.slowRB.snapshot()
}

// DebugHandler serves the ring buffers as JSON:
//
//	{"slow_threshold_ms": 500, "recent": [...], "slow": [...]}
func (q *QueryLog) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			SlowThresholdMs float64       `json:"slow_threshold_ms"`
			Recent          []QueryRecord `json:"recent"`
			Slow            []QueryRecord `json:"slow"`
		}{durMs(q.slow), q.Recent(), q.Slow()})
	})
}

// ErrorClass buckets an error for log fields and metric labels using
// the endpoint error taxonomy: "parse", "circuit_open", "timeout",
// "canceled", "http_4xx", "http_5xx", "transient", or "other" ("" for
// nil).
func ErrorClass(err error) string {
	if err == nil {
		return ""
	}
	var pe *endpoint.ParseError
	if errors.As(err, &pe) {
		return "parse"
	}
	if errors.Is(err, endpoint.ErrCircuitOpen) {
		return "circuit_open"
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "timeout"
	}
	if errors.Is(err, context.Canceled) {
		return "canceled"
	}
	var he *endpoint.HTTPError
	if errors.As(err, &he) {
		if he.Status >= 500 {
			return "http_5xx"
		}
		return "http_4xx"
	}
	var te *endpoint.TransientError
	if errors.As(err, &te) {
		return "transient"
	}
	return "other"
}

// ring is a fixed-size circular buffer of query records.
type ring struct {
	buf  []QueryRecord
	next int
	n    int // records stored (saturates at len(buf))
}

func (r *ring) push(rec QueryRecord) {
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// snapshot returns the stored records newest first.
func (r *ring) snapshot() []QueryRecord {
	out := make([]QueryRecord, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

func truncate(s string, max int) string {
	if max < 0 || len(s) <= max {
		return s
	}
	return s[:max] + "…"
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
