package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
	"lusail/internal/trace"
)

// phase1Flaky fails its first failures requests issued under a
// "phase1" span with a transient error and answers everything else.
type phase1Flaky struct {
	endpoint.Endpoint
	failures atomic.Int64
}

func (f *phase1Flaky) Query(ctx context.Context, q string) (*sparql.Results, error) {
	if sp := trace.SpanFrom(ctx); sp != nil && sp.Name == "phase1" && f.failures.Add(-1) >= 0 {
		return nil, endpoint.Transient(context.DeadlineExceeded)
	}
	return f.Endpoint.Query(ctx, q)
}

// A retry lands on the span of the phase that issued the request, and
// once in the query's totals: the phase1 span, the root span and
// Metrics.Retries all read 2, and no enclosing span counts it again.
func TestPhaseSpanCarriesRetries(t *testing.T) {
	e1, e2 := testfed.Universities()
	flaky := &phase1Flaky{Endpoint: e1}
	flaky.failures.Store(2)
	l := New([]endpoint.Endpoint{flaky, e2}, Config{Resilience: &endpoint.ResilienceConfig{MaxRetries: 3}})
	_, m, tr, err := l.ExecuteStreamTraced(context.Background(), testfed.Qa, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Root.Find("phase1").Int("retries"); got != 2 {
		t.Errorf("phase1 span retries = %d, want 2\n%s", got, tr)
	}
	if got := tr.Root.Int("retries"); got != 2 {
		t.Errorf("root span retries = %d, want 2", got)
	}
	if m.Retries != 2 {
		t.Errorf("Metrics.Retries = %d, want 2", m.Retries)
	}
	if got := tr.Root.SumInt("retries"); got != 4 {
		t.Errorf("retries summed over the tree = %d, want 4 (root + phase1)\n%s", got, tr)
	}
}

// traceFaults injects faults into the requests of chosen traces only,
// so two concurrent queries on one engine see different fault events.
// fail[id] source-selection requests of trace id fail transiently;
// every request of trace down waits for release, then fails; under
// slow[id] the first call of each phase-1 text hangs until cancelled
// (the hedge's backup, the second call, answers).
type traceFaults struct {
	endpoint.Endpoint
	mu      sync.Mutex
	fail    map[trace.TraceID]int
	down    trace.TraceID
	release chan struct{}
	slow    map[trace.TraceID]bool
	calls   map[string]int
	slowed  map[trace.TraceID]int
}

func (f *traceFaults) Query(ctx context.Context, q string) (*sparql.Results, error) {
	sp := trace.SpanFrom(ctx)
	id := sp.TraceID()
	f.mu.Lock()
	inject := sp.Name == "source-selection" && f.fail[id] > 0
	if inject {
		f.fail[id]--
	}
	hang := false
	if sp.Name == "phase1" && f.slow[id] {
		key := id.String() + q
		f.calls[key]++
		if hang = f.calls[key] == 1; hang {
			f.slowed[id]++
		}
	}
	f.mu.Unlock()
	switch {
	case id == f.down:
		<-f.release
		return nil, endpoint.Transient(errors.New("down for this trace"))
	case inject:
		return nil, endpoint.Transient(errors.New("injected for this trace"))
	case hang:
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return f.Endpoint.Query(ctx, q)
}

// Two concurrent queries on one engine share a flaky endpoint and a
// hedging one: each query's Metrics hold only its own retries, breaker
// rejections and hedges, together they account for every event the
// endpoint clients counted, and each root span's totals are the sums
// of its phase spans.
func TestConcurrentQueriesOwnFaultEvents(t *testing.T) {
	e1, e2 := testfed.Universities()
	idA, idB := trace.NewTraceID(), trace.NewTraceID()
	flaky := &traceFaults{Endpoint: e1, fail: map[trace.TraceID]int{idA: 1}, down: idB, release: make(chan struct{})}
	hedged := &traceFaults{Endpoint: e2, slow: map[trace.TraceID]bool{idA: true},
		calls: map[string]int{}, slowed: map[trace.TraceID]int{}}
	l := New([]endpoint.Endpoint{flaky, hedged}, Config{
		DisableCache: true,
		Hedge:        true,
		Resilience:   &endpoint.ResilienceConfig{MaxRetries: 3, BreakerFailures: 2, BreakerCooldown: time.Minute},
	})
	ctx := context.Background()
	// Warm the hedge trigger: it arms once the endpoint has answered
	// enough attempts.
	for i := 0; i < 10; i++ {
		if _, err := l.Execute(ctx, testfed.Qa); err != nil {
			t.Fatal(err)
		}
	}
	before := endpoint.TotalStats(l.eps)

	run := func(id trace.TraceID, m *Metrics, tr **trace.Trace, err *error) {
		parent := trace.SpanContext{TraceID: id, SpanID: trace.NewSpanID(), Sampled: true}
		_, *m, *tr, *err = l.ExecuteStreamTraced(trace.WithRemoteParent(ctx, parent), testfed.Qa, nil)
	}
	var mA, mB Metrics
	var trA, trB *trace.Trace
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); run(idB, &mB, &trB, &errB) }()
	go func() { defer wg.Done(); run(idA, &mA, &trA, &errA); close(flaky.release) }()
	wg.Wait()

	if errA != nil {
		t.Fatalf("query A: %v", errA)
	}
	if errB == nil {
		t.Fatal("query B ran against an endpoint down for it, yet succeeded")
	}
	if mA.Retries != 1 || mA.BreakerOpens != 0 {
		t.Errorf("query A: retries = %d, breaker rejections = %d; want its own 1 and 0", mA.Retries, mA.BreakerOpens)
	}
	if mB.BreakerOpens == 0 {
		t.Error("query B: no breaker rejections recorded")
	}
	if slowed := hedged.slowed[idA]; slowed == 0 || mA.Hedges < slowed || mB.Hedges != 0 {
		t.Errorf("hedges: query A %d (it slowed %d primaries), query B %d; want at least A's own and none for B",
			mA.Hedges, slowed, mB.Hedges)
	}
	after := endpoint.TotalStats(l.eps)
	for _, c := range []struct {
		name          string
		a, b          int
		before, after int64
	}{
		{"retries", mA.Retries, mB.Retries, before.Retries, after.Retries},
		{"breaker_opens", mA.BreakerOpens, mB.BreakerOpens, before.BreakerOpens, after.BreakerOpens},
		{"hedges", mA.Hedges, mB.Hedges, before.Hedges, after.Hedges},
	} {
		if int64(c.a+c.b) != c.after-c.before {
			t.Errorf("%s: queries account for %d+%d, endpoint clients counted %d", c.name, c.a, c.b, c.after-c.before)
		}
		for _, tr := range []*trace.Trace{trA, trB} {
			var phases int64
			for _, ch := range tr.Root.Children() {
				phases += ch.SumInt(c.name)
			}
			if got := tr.Root.Int(c.name); got != phases {
				t.Errorf("%s: root span total %d, phase spans sum to %d\n%s", c.name, got, phases, tr)
			}
		}
	}
}

// Head sampling: TraceSampling 0 marks every locally-rooted trace
// unsampled (tail rules decide retention), nil samples everything, and
// a joined trace honors the remote parent's flag instead of the local
// ratio.
func TestTraceHeadSampling(t *testing.T) {
	zero := 0.0
	l, _ := newUniLusail(Config{TraceSampling: &zero})
	ctx := context.Background()

	_, _, tr, err := l.ExecuteStreamTraced(ctx, testfed.Qa, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.Sampled() {
		t.Error("TraceSampling=0 must leave locally-rooted traces unsampled")
	}

	// A remote parent's sampled flag overrides the local ratio: the head
	// decision belongs to the trace's root process.
	parent := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID(), Sampled: true}
	_, _, jtr, err := l.ExecuteStreamTraced(trace.WithRemoteParent(ctx, parent), testfed.Qa, nil)
	if err != nil {
		t.Fatal(err)
	}
	if jtr.ID() != parent.TraceID {
		t.Fatalf("joined trace ID = %s, want remote parent's %s", jtr.ID(), parent.TraceID)
	}
	if !jtr.Root.Sampled() {
		t.Error("joined trace must keep the remote parent's sampled flag")
	}
	if jtr.Root.ParentID() != parent.SpanID {
		t.Error("joined root must parent the remote span")
	}

	// Default (nil): everything sampled.
	l2, _ := newUniLusail(Config{})
	_, _, tr2, err := l2.ExecuteStreamTraced(ctx, testfed.Qa, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tr2.Root.Sampled() {
		t.Error("nil TraceSampling must sample every trace")
	}
}

// The subquery cache records hit and miss exemplars only for sampled
// traced executions, and CacheStats surfaces them on the subquery
// entry.
func TestSubqueryCacheExemplars(t *testing.T) {
	c := NewSubqueryCache(nil, 0, 0)
	rel := relOf(nil)

	// Untraced: no exemplars.
	if _, _, err := c.Do(context.Background(), "k", nil, false, true, func() (*Relation, error) { return rel, nil }); err != nil {
		t.Fatal(err)
	}
	if hit, miss := c.Exemplars(); hit != nil || miss != nil {
		t.Fatal("untraced execution must not record exemplars")
	}

	// Sampled trace: miss then hit both pinned.
	tr := trace.New("query")
	ctx := trace.WithSpan(context.Background(), tr.Root)
	if _, _, err := c.Do(ctx, "k2", nil, false, true, func() (*Relation, error) { return rel, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Do(ctx, "k2", nil, false, true, func() (*Relation, error) { return rel, nil }); err != nil {
		t.Fatal(err)
	}
	hit, miss := c.Exemplars()
	if miss == nil || miss.TraceID != tr.ID() {
		t.Fatalf("miss exemplar = %+v, want trace %s", miss, tr.ID())
	}
	if hit == nil || hit.TraceID != tr.ID() {
		t.Fatalf("hit exemplar = %+v, want trace %s", hit, tr.ID())
	}
	if time.Since(hit.At) > time.Minute {
		t.Error("exemplar timestamp must be recent")
	}

	// Unsampled trace: skipped (its spans never reach a collector).
	tr2 := trace.New("query")
	tr2.Root.SetSampled(false)
	ctx2 := trace.WithSpan(context.Background(), tr2.Root)
	if _, ok := cached(c, ctx2, "k2"); !ok {
		t.Fatal("expected cached entry")
	}
	if hit, _ := c.Exemplars(); hit.TraceID == tr2.ID() {
		t.Error("unsampled trace must not overwrite exemplars")
	}

	// CacheStats carries the subquery cache's exemplars through.
	l, _ := newUniLusail(Config{SubqueryCacheSize: 16})
	if _, _, _, err := l.ExecuteStreamTraced(context.Background(), testfed.Qa, nil); err != nil {
		t.Fatal(err)
	}
	for _, e := range l.CacheStats() {
		if e.Name != "subquery" {
			continue
		}
		if e.MissExemplar == nil {
			t.Fatal("subquery cache stats must carry the miss exemplar after a cold traced query")
		}
	}
}
