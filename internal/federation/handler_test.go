package federation

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// runAll drains Run into a slice in task order, checking every task is
// delivered exactly once.
func runAll(t *testing.T, ctx context.Context, tasks []Task) []Result {
	t.Helper()
	out := make([]Result, len(tasks))
	seen := make([]bool, len(tasks))
	for r := range Run(ctx, tasks) {
		if seen[r.Index] {
			t.Fatalf("task %d delivered twice", r.Index)
		}
		seen[r.Index] = true
		out[r.Index] = r
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("task %d never delivered", i)
		}
	}
	return out
}

// gaugeEndpoint tracks concurrent in-flight requests and answers each
// with its own query text, bound to ?q.
type gaugeEndpoint struct {
	name     string
	delay    time.Duration
	inFlight atomic.Int32
	maxSeen  atomic.Int32

	mu      sync.Mutex
	queries []string
}

func (g *gaugeEndpoint) Name() string { return g.name }

func (g *gaugeEndpoint) Query(ctx context.Context, query string) (*sparql.Results, error) {
	n := g.inFlight.Add(1)
	for {
		max := g.maxSeen.Load()
		if n <= max || g.maxSeen.CompareAndSwap(max, n) {
			break
		}
	}
	g.mu.Lock()
	g.queries = append(g.queries, query)
	g.mu.Unlock()
	time.Sleep(g.delay)
	g.inFlight.Add(-1)
	return &sparql.Results{Vars: []sparql.Var{"q"}, Rows: []sparql.Binding{{"q": rdf.Literal(query)}}}, nil
}

func TestHandlerWindowPerEndpoint(t *testing.T) {
	ep := &gaugeEndpoint{name: "a", delay: 20 * time.Millisecond}
	var tasks []Task
	for i := 0; i < 2*endpointWindow; i++ {
		tasks = append(tasks, Task{EP: ep, Query: "ASK { ?s ?p ?o }"})
	}
	runAll(t, context.Background(), tasks)
	if got := ep.maxSeen.Load(); got != endpointWindow {
		t.Errorf("max in-flight at one endpoint = %d, want the window %d", got, endpointWindow)
	}
	if len(ep.queries) != len(tasks) {
		t.Errorf("queries received = %d, want %d", len(ep.queries), len(tasks))
	}
}

func TestHandlerParallelAcrossEndpoints(t *testing.T) {
	const n = 6
	const delay = 20 * time.Millisecond
	var eps []*gaugeEndpoint
	var tasks []Task
	for i := 0; i < n; i++ {
		ep := &gaugeEndpoint{name: string(rune('a' + i)), delay: delay}
		eps = append(eps, ep)
		tasks = append(tasks, Task{EP: ep, Query: "ASK { ?s ?p ?o }"})
	}
	start := time.Now()
	runAll(t, context.Background(), tasks)
	elapsed := time.Since(start)
	// Serial execution would take n*delay; parallel should be well
	// under half of that.
	if elapsed > time.Duration(n)*delay/2 {
		t.Errorf("elapsed %v suggests serialized endpoints (serial would be %v)", elapsed, time.Duration(n)*delay)
	}
}

func TestHandlerEmptyTaskList(t *testing.T) {
	for r := range Run(context.Background(), nil) {
		t.Errorf("result %+v from an empty batch", r)
	}
}

func TestHandlerResultsAlignWithTasks(t *testing.T) {
	a := &gaugeEndpoint{name: "a"}
	b := &gaugeEndpoint{name: "b"}
	tasks := []Task{
		{EP: a, Query: "q0"}, {EP: b, Query: "q1"}, {EP: a, Query: "q2"},
	}
	for i, r := range runAll(t, context.Background(), tasks) {
		if got := r.Res.Rows[0]["q"].Value; got != tasks[i].Query {
			t.Errorf("result %d answers %q, want %q", i, got, tasks[i].Query)
		}
	}
}

// failEndpoint errors on every request, optionally after a gate fires.
type failEndpoint struct {
	name     string
	after    <-chan struct{} // if set, wait for it before failing
	requests atomic.Int32
}

func (f *failEndpoint) Name() string { return f.name }

func (f *failEndpoint) Query(ctx context.Context, query string) (*sparql.Results, error) {
	f.requests.Add(1)
	if f.after != nil {
		<-f.after
	}
	return nil, errTerminal
}

var errTerminal = errors.New("terminal endpoint failure")

// blockEndpoint hangs every request until its context is cancelled.
type blockEndpoint struct {
	name     string
	started  chan struct{} // closed on first request
	once     sync.Once
	requests atomic.Int32
}

func newBlockEndpoint(name string) *blockEndpoint {
	return &blockEndpoint{name: name, started: make(chan struct{})}
}

func (b *blockEndpoint) Name() string { return b.name }

func (b *blockEndpoint) Query(ctx context.Context, query string) (*sparql.Results, error) {
	b.requests.Add(1)
	b.once.Do(func() { close(b.started) })
	<-ctx.Done()
	return nil, ctx.Err()
}

// slowEndpoint answers after a context-aware delay.
type slowEndpoint struct {
	name     string
	delay    time.Duration
	requests atomic.Int32
}

func (s *slowEndpoint) Name() string { return s.name }

func (s *slowEndpoint) Query(ctx context.Context, query string) (*sparql.Results, error) {
	s.requests.Add(1)
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(s.delay):
		return sparql.NewAskResult(true), nil
	}
}

func TestRunShortCircuitsCancelledContext(t *testing.T) {
	ep := &gaugeEndpoint{name: "a"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := runAll(t, ctx, []Task{{EP: ep, Query: "q0"}, {EP: ep, Query: "q1"}})
	for i, tr := range out {
		if !errors.Is(tr.Err, context.Canceled) {
			t.Errorf("task %d err = %v, want context.Canceled", i, tr.Err)
		}
	}
	if len(ep.queries) != 0 {
		t.Errorf("cancelled run dispatched %d requests, want 0", len(ep.queries))
	}
}

// The window rides the shared transport's per-host keep-alive pool: a
// window wider than the pool would redial a connection per surplus
// request on every batch.
func TestEndpointWindowFitsTransportPool(t *testing.T) {
	if pool := endpoint.NewTransport(endpoint.TransportConfig{}).MaxIdleConnsPerHost; endpointWindow > pool {
		t.Errorf("endpointWindow = %d exceeds the default MaxIdleConnsPerHost %d", endpointWindow, pool)
	}
}
