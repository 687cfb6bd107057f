package endpoint

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"sync"
	"testing"

	"lusail/internal/trace"
)

// sinkCapture records traces exported by the protocol handler.
type sinkCapture struct {
	mu     sync.Mutex
	traces []*trace.Trace
}

func (c *sinkCapture) ExportTrace(t *trace.Trace) {
	c.mu.Lock()
	c.traces = append(c.traces, t)
	c.mu.Unlock()
}

func (c *sinkCapture) snapshot() []*trace.Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*trace.Trace(nil), c.traces...)
}

func TestTraceparentPropagationEndToEnd(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	sink := &sinkCapture{}
	srv := httptest.NewServer(HandlerWithConfig(NewLocal("remote", testStore()), HandlerConfig{
		Logger:    quiet,
		TraceSink: sink,
	}))
	defer srv.Close()

	// Client side: a traced context issues the request through
	// HTTPEndpoint, which must inject traceparent.
	ep := NewHTTP("remote", srv.URL)
	tr := trace.New("query")
	ctx := trace.WithSpan(context.Background(), tr.Root)
	if _, err := ep.Query(ctx, selectP); err != nil {
		t.Fatal(err)
	}

	got := sink.snapshot()
	if len(got) != 1 {
		t.Fatalf("handler exported %d traces, want 1", len(got))
	}
	server := got[0]
	if server.ID() != tr.ID() {
		t.Fatalf("server-side trace ID %s must equal the federator's %s (stitched trace)",
			server.ID(), tr.ID())
	}
	if server.Root.ParentID() != tr.Root.ID() {
		t.Fatal("server root must parent the client's span")
	}
	if server.Root.Kind() != trace.KindServer {
		t.Fatal("server root must be a server-kind span")
	}
	if !server.Root.Sampled() {
		t.Fatal("sampled flag must propagate")
	}
	if server.Root.Get("endpoint") != "remote" {
		t.Fatalf("server root must carry the endpoint name, got %v", server.Root.Get("endpoint"))
	}
	if server.Root.Int("rows") != 2 {
		t.Fatalf("server root rows = %d, want 2", server.Root.Int("rows"))
	}

	// An untraced request still produces a (fresh) server-side trace.
	if _, err := ep.Query(context.Background(), selectP); err != nil {
		t.Fatal(err)
	}
	got = sink.snapshot()
	if len(got) != 2 {
		t.Fatalf("handler exported %d traces, want 2", len(got))
	}
	if got[1].ID() == tr.ID() || got[1].ID().IsZero() {
		t.Fatal("untraced request must start a fresh trace")
	}
	if !got[1].Root.ParentID().IsZero() {
		t.Fatal("untraced request's root must have no parent")
	}
}

func TestHandlerTraceErrorAttr(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	sink := &sinkCapture{}
	srv := httptest.NewServer(HandlerWithConfig(NewLocal("remote", testStore()), HandlerConfig{
		Logger:    quiet,
		TraceSink: sink,
	}))
	defer srv.Close()

	ep := NewHTTP("remote", srv.URL)
	if _, err := ep.Query(context.Background(), "SELEKT broken"); err == nil {
		t.Fatal("malformed query must error")
	}
	got := sink.snapshot()
	if len(got) != 1 {
		t.Fatalf("handler exported %d traces, want 1", len(got))
	}
	if got[0].Root.Get("error") == nil {
		t.Fatal("failed query's server span must carry the error attribute")
	}
}

func TestInstrumentedExemplars(t *testing.T) {
	in := NewClient(NewLocal("ep", testStore()), nil)

	// Untraced call: no exemplar anywhere.
	if _, err := in.Query(context.Background(), selectP); err != nil {
		t.Fatal(err)
	}
	for i, ex := range in.Stats().Latency.Exemplars {
		if ex != nil {
			t.Fatalf("untraced call produced exemplar in bucket %d", i)
		}
	}

	// Traced call: exactly one bucket gets the trace ID.
	tr := trace.New("query")
	ctx := trace.WithSpan(context.Background(), tr.Root)
	if _, err := in.Query(ctx, selectP); err != nil {
		t.Fatal(err)
	}
	var found int
	for _, ex := range in.Stats().Latency.Exemplars {
		if ex == nil {
			continue
		}
		found++
		if ex.TraceID != tr.ID() {
			t.Fatalf("exemplar trace ID = %s, want %s", ex.TraceID, tr.ID())
		}
		if ex.Value <= 0 {
			t.Fatal("exemplar must carry the observed latency")
		}
	}
	if found != 1 {
		t.Fatalf("found %d exemplars, want 1", found)
	}

	// Unsampled trace: skipped (its spans never reach a collector).
	tr2 := trace.New("query")
	tr2.Root.SetSampled(false)
	if _, err := in.Query(trace.WithSpan(context.Background(), tr2.Root), selectP); err != nil {
		t.Fatal(err)
	}
	for _, ex := range in.Stats().Latency.Exemplars {
		if ex != nil && ex.TraceID == tr2.ID() {
			t.Fatal("unsampled trace must not produce exemplars")
		}
	}

	// Exemplars surface through PerEndpointStats.
	stats := PerEndpointStats([]Endpoint{in})
	if len(stats) != 1 || stats[0].Stats.Latency.Exemplars == nil {
		t.Fatalf("PerEndpointStats must carry exemplars: %+v", stats)
	}
	if got := len(stats[0].Stats.Latency.Exemplars); got != len(latencyBounds)+1 {
		t.Fatalf("exemplar slice length = %d, want %d", got, len(latencyBounds)+1)
	}
}
