package endpoint

import (
	"context"
	"sync"
	"testing"
	"time"

	"lusail/internal/store"
	"lusail/internal/trace"
)

// observe records d in the endpoint latency histogram h, untraced.
func observe(h *trace.Histogram, d time.Duration) { h.Observe(d.Seconds(), nil) }

func TestLatencyHistogramBuckets(t *testing.T) {
	live := NewLatencyHistogram()
	observe(live, 50*time.Microsecond) // bucket 0
	observe(live, 3*time.Millisecond)  // <=5ms
	observe(live, 3*time.Millisecond)
	observe(live, time.Minute) // overflow
	h := live.Snapshot()
	if got := h.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	if h.Counts[0] != 1 || h.Counts[len(latencyBounds)] != 1 {
		t.Fatalf("unexpected bucket layout: %v", h.Counts)
	}
	if got := h.Mean(); got == 0 {
		t.Fatal("Mean should be non-zero")
	}
	other := NewLatencyHistogram()
	observe(other, 3*time.Millisecond)
	h.Add(other.Snapshot())
	if got := h.Count(); got != 5 {
		t.Fatalf("Count after Add = %d, want 5", got)
	}
	var empty trace.HistogramSnapshot
	if empty.Count() != 0 || empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram accessors should report zero")
	}
}

func TestLatencyHistogramQuantile(t *testing.T) {
	live := NewLatencyHistogram()
	// 90 fast samples, 10 slow ones: p50 stays in the fast bucket,
	// p99 lands in the slow one.
	for i := 0; i < 90; i++ {
		observe(live, 80*time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		observe(live, 40*time.Millisecond)
	}
	h := live.Snapshot()
	if got := trace.Seconds(h.Quantile(0.5)); got != 100*time.Microsecond {
		t.Fatalf("p50 = %s, want 100µs bound", got)
	}
	if got := trace.Seconds(h.Quantile(0.99)); got != 50*time.Millisecond {
		t.Fatalf("p99 = %s, want 50ms bound", got)
	}
}

func TestInstrumentedCountsAndStats(t *testing.T) {
	ep := NewLocal("A", store.New())
	in := NewClient(ep, nil)
	ctx := context.Background()
	if _, err := in.Query(ctx, `SELECT ?s WHERE { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Query(ctx, `THIS IS NOT SPARQL`); err == nil {
		t.Fatal("expected a parse error")
	}
	st := in.Stats()
	if st.Errors != 1 || st.Latency.Count() != 2 {
		t.Fatalf("Stats should merge instrumentation: %+v", st)
	}
	// Stats must also include the inner endpoint's traffic counters.
	if st.Requests != 2 {
		t.Fatalf("Stats.Requests = %d, want 2", st.Requests)
	}
	in.ResetStats()
	if st := in.Stats(); st.Errors != 0 || st.Latency.Count() != 0 || st.Requests != 0 {
		t.Fatal("ResetStats should zero client and inner counters")
	}
}

func TestInstrumentedName(t *testing.T) {
	in := NewClient(NewLocal("A", store.New()), nil)
	if in.Name() != "A" {
		t.Fatalf("Name = %q", in.Name())
	}
}

func TestWrapInstrumentedAndPerEndpointStats(t *testing.T) {
	wrapped := []Endpoint{
		NewClient(NewLocal("B", store.New()), nil),
		NewClient(NewLocal("A", store.New()), nil),
	}
	if _, err := wrapped[0].Query(context.Background(), `ASK { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	stats := PerEndpointStats(wrapped)
	if len(stats) != 2 || stats[0].Name != "A" || stats[1].Name != "B" {
		t.Fatalf("PerEndpointStats should sort by name: %+v", stats)
	}
	if stats[1].Stats.Latency.Count() != 1 {
		t.Fatalf("endpoint B should have one latency sample: %+v", stats[1].Stats)
	}
}

// Concurrent queries must not race on the histogram (run with -race).
func TestInstrumentedConcurrent(t *testing.T) {
	in := NewClient(NewLocal("A", store.New()), nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = in.Query(context.Background(), `ASK { ?s ?p ?o }`)
		}()
	}
	wg.Wait()
	if got := in.Stats().Latency.Count(); got != 16 {
		t.Fatalf("latency samples = %d, want 16", got)
	}
}
