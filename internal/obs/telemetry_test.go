package obs

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/testfed"
	"lusail/internal/trace"
)

func TestOpenMetricsExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lusail_test_seconds", "help", []float64{0.1, 1})
	h.ObserveWithExemplar(0.05, &trace.Exemplar{TraceID: traceID(t, "abc12300000000000000000000000000"), Value: 0.05})
	h.Observe(0.5)
	c := r.Counter("lusail_test_total", "help")
	c.AddWithExemplar(1, &trace.Exemplar{TraceID: traceID(t, "def45600000000000000000000000000"), Value: 1})

	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("OpenMetrics output must end with # EOF:\n%s", out)
	}
	// Counter family drops _total in TYPE, samples keep it.
	if !strings.Contains(out, "# TYPE lusail_test counter") {
		t.Fatalf("counter TYPE line must drop _total:\n%s", out)
	}
	if !strings.Contains(out, `lusail_test_total 1 # {trace_id="def45600000000000000000000000000"} 1`) {
		t.Fatalf("counter exemplar missing:\n%s", out)
	}
	if !strings.Contains(out, `lusail_test_seconds_bucket{le="0.1"} 1 # {trace_id="abc12300000000000000000000000000"} 0.05`) {
		t.Fatalf("bucket exemplar missing:\n%s", out)
	}
	// The 0.5 observation landed in le="1" with no exemplar: bare count.
	if !strings.Contains(out, `lusail_test_seconds_bucket{le="1"} 2`) {
		t.Fatalf("cumulative bucket count wrong:\n%s", out)
	}

	// The 0.0.4 exposition must not leak exemplar syntax.
	var plain strings.Builder
	if err := r.WriteText(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "#  {") || strings.Contains(plain.String(), "trace_id") {
		t.Fatalf("0.0.4 text must not contain exemplars:\n%s", plain.String())
	}
}

func TestHandlerContentNegotiation(t *testing.T) {
	r := NewRegistry()
	r.Counter("lusail_x_total", "help").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != OpenMetricsContentType {
		t.Fatalf("content type = %q", got)
	}
	if !strings.HasSuffix(string(body), "# EOF\n") {
		t.Fatalf("OpenMetrics body must end with EOF:\n%s", body)
	}

	resp2, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("Content-Type"); got != ContentType {
		t.Fatalf("default content type = %q", got)
	}
	if strings.Contains(string(body2), "# EOF") {
		t.Fatal("0.0.4 exposition must not contain # EOF")
	}
}

// fakeCollector is an httptest OTLP collector that records request
// bodies.
type fakeCollector struct {
	mu     sync.Mutex
	bodies [][]byte
	fail   atomic.Int32 // fail this many requests first
}

func (f *fakeCollector) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		if f.fail.Load() > 0 {
			f.fail.Add(-1)
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		f.mu.Lock()
		f.bodies = append(f.bodies, body)
		f.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
}

func (f *fakeCollector) spanNames(t *testing.T) (names []string, traceIDs map[string]bool) {
	t.Helper()
	traceIDs = map[string]bool{}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, body := range f.bodies {
		var req struct {
			ResourceSpans []struct {
				ScopeSpans []struct {
					Spans []struct {
						TraceID string `json:"traceId"`
						Name    string `json:"name"`
					} `json:"spans"`
				} `json:"scopeSpans"`
			} `json:"resourceSpans"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("collector received invalid JSON: %v", err)
		}
		for _, rs := range req.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				for _, sp := range ss.Spans {
					names = append(names, sp.Name)
					traceIDs[sp.TraceID] = true
				}
			}
		}
	}
	return
}

func quietTestLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func TestSpanExporterBatchesAndFlushes(t *testing.T) {
	fc := &fakeCollector{}
	srv := httptest.NewServer(fc.handler())
	defer srv.Close()

	e := NewSpanExporter(ExporterConfig{
		Endpoint:      srv.URL,
		FlushInterval: time.Hour, // only explicit flush sends
		Logger:        quietTestLogger(),
	})
	tr := trace.New("query")
	tr.Root.StartChild("phase1").End()
	tr.Root.End()
	e.ExportTrace(tr)
	tr2 := trace.New("query")
	tr2.Root.End()
	e.ExportTrace(tr2)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	names, ids := fc.spanNames(t)
	if len(names) != 3 {
		t.Fatalf("collector received %d spans, want 3: %v", len(names), names)
	}
	if !ids[tr.ID().String()] || !ids[tr2.ID().String()] {
		t.Fatalf("collector trace IDs %v missing %s/%s", ids, tr.ID(), tr2.ID())
	}
	fc.mu.Lock()
	batches := len(fc.bodies)
	fc.mu.Unlock()
	if batches != 1 {
		t.Fatalf("both traces must arrive in one batched POST, got %d", batches)
	}
	st := e.Stats()
	if st.Enqueued != 2 || st.Exported != 3 || st.Batches != 1 || st.Dropped != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSpanExporterRetryThenDrop(t *testing.T) {
	fc := &fakeCollector{}
	fc.fail.Store(10) // more failures than retries
	srv := httptest.NewServer(fc.handler())
	defer srv.Close()

	e := NewSpanExporter(ExporterConfig{
		Endpoint:      srv.URL,
		FlushInterval: time.Hour,
		MaxRetries:    1,
		RetryBackoff:  time.Millisecond,
		Logger:        quietTestLogger(),
	})
	tr := trace.New("query")
	tr.Root.End()
	e.ExportTrace(tr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Failed != 1 || st.Retries != 1 || st.Exported != 0 {
		t.Fatalf("stats after retry exhaustion: %+v", st)
	}

	// Recover: the next batch goes through.
	fc.fail.Store(0)
	tr2 := trace.New("query")
	tr2.Root.End()
	e.ExportTrace(tr2)
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Exported != 1 {
		t.Fatalf("stats after recovery: %+v", st)
	}
	_ = e.Shutdown(ctx)
}

func TestSpanExporterQueueDrop(t *testing.T) {
	// No collector: the sender blocks on a dead address, but the queue
	// bound is what we exercise.
	e := NewSpanExporter(ExporterConfig{
		Endpoint:      "http://127.0.0.1:0",
		QueueSize:     1,
		FlushInterval: time.Hour,
		MaxRetries:    1,
		RetryBackoff:  time.Millisecond,
		Logger:        quietTestLogger(),
	})
	for i := 0; i < 50; i++ {
		tr := trace.New("query")
		tr.Root.End()
		e.ExportTrace(tr)
	}
	st := e.Stats()
	if st.Dropped == 0 {
		t.Fatalf("overfilled queue must drop: %+v", st)
	}
	if st.Enqueued+st.Dropped != 50 {
		t.Fatalf("accounting must cover all traces: %+v", st)
	}
}

// captureSink records exported traces.
type captureSink struct {
	mu     sync.Mutex
	traces []*trace.Trace
}

func (c *captureSink) ExportTrace(t *trace.Trace) {
	c.mu.Lock()
	c.traces = append(c.traces, t)
	c.mu.Unlock()
}

func (c *captureSink) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traces)
}

func TestTraceSamplerRules(t *testing.T) {
	sink := &captureSink{}
	s := NewTraceSampler(SamplerConfig{
		SlowThreshold: 100 * time.Millisecond,
		KeepErrors:    true,
		KeepDegraded:  true,
		Next:          sink,
	})

	// Head-sampled: kept.
	kept := trace.New("query")
	kept.Root.End()
	s.ExportTrace(kept)

	// Head says drop, fast, clean: dropped.
	fast := trace.New("query")
	fast.Root.SetSampled(false)
	fast.Root.SetDuration(time.Millisecond)
	s.ExportTrace(fast)

	// Head says drop but slow: kept.
	slow := trace.New("query")
	slow.Root.SetSampled(false)
	slow.Root.SetDuration(time.Second)
	s.ExportTrace(slow)

	// Head says drop but errored: kept.
	errored := trace.New("query")
	errored.Root.SetSampled(false)
	errored.Root.SetDuration(time.Millisecond)
	errored.Root.Set("error", "boom")
	s.ExportTrace(errored)

	// Head says drop but degraded: kept.
	degraded := trace.New("query")
	degraded.Root.SetSampled(false)
	degraded.Root.SetDuration(time.Millisecond)
	degraded.Root.Set("dropped", int64(2))
	s.ExportTrace(degraded)

	if got := sink.count(); got != 4 {
		t.Fatalf("sink received %d traces, want 4", got)
	}
	st := s.Stats()
	if st.KeptHead != 1 || st.KeptSlow != 1 || st.KeptError != 1 || st.KeptDegraded != 1 || st.Dropped != 1 {
		t.Fatalf("sampler stats: %+v", st)
	}
}

// An unsampled query's trace never reaches a collector, so it must
// leave no exemplar on the endpoint latency histogram, the cache
// counters or the query-duration histogram; the same queries sampled
// leave one on each.
func TestUnsampledQueryLeavesNoExemplars(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		reg := NewRegistry()
		ratio := 0.0
		if sampled {
			ratio = 1
		}
		e1, e2 := testfed.Universities()
		l := core.New([]endpoint.Endpoint{e1, e2}, core.Config{
			SubqueryCacheSize: 16,
			TraceSampling:     &ratio,
			QueryLog:          NewQueryLog(QueryLogConfig{Logger: quietTestLogger(), Registry: reg}),
		})
		RegisterEndpointStats(reg, l.EndpointStats)
		RegisterCaches(reg, l.CacheStats)
		for i := 0; i < 2; i++ { // a cache miss, then a hit
			if _, err := l.Execute(context.Background(), testfed.Qa); err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		if err := reg.WriteOpenMetrics(&b); err != nil {
			t.Fatal(err)
		}
		for _, family := range []string{
			"lusail_endpoint_latency_seconds_bucket",
			`lusail_cache_hits_total{cache="subquery"}`,
			`lusail_cache_misses_total{cache="subquery"}`,
			"lusail_query_duration_seconds_bucket",
		} {
			found := false
			for _, line := range strings.Split(b.String(), "\n") {
				if strings.HasPrefix(line, family) && strings.Contains(line, `# {trace_id="`) {
					found = true
				}
			}
			if found != sampled {
				t.Errorf("sampled=%v: %s carries an exemplar: %v\n%s", sampled, family, found, b.String())
			}
		}
	}
}
