package federation

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/sparql"
)

// gaugeEndpoint tracks concurrent in-flight requests.
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
	return sparql.NewAskResult(true), nil
}

func TestHandlerWindowPerEndpoint(t *testing.T) {
	ep := &gaugeEndpoint{name: "a", delay: 20 * time.Millisecond}
	h := &Handler{}
	var tasks []Task
	for i := 0; i < 2*endpointWindow; i++ {
		tasks = append(tasks, Task{EP: ep, Query: "ASK { ?s ?p ?o }"})
	}
	h.Run(context.Background(), tasks)
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
	h := &Handler{}
	start := time.Now()
	h.Run(context.Background(), tasks)
	elapsed := time.Since(start)
	// Serial execution would take n*delay; parallel should be well
	// under half of that.
	if elapsed > time.Duration(n)*delay/2 {
		t.Errorf("elapsed %v suggests serialized endpoints (serial would be %v)", elapsed, time.Duration(n)*delay)
	}
}

func TestHandlerEmptyTaskList(t *testing.T) {
	h := &Handler{}
	if out := h.Run(context.Background(), nil); len(out) != 0 {
		t.Errorf("results = %v", out)
	}
}

func TestHandlerResultsAlignWithTasks(t *testing.T) {
	a := &gaugeEndpoint{name: "a"}
	b := &gaugeEndpoint{name: "b"}
	h := &Handler{}
	tasks := []Task{
		{EP: a, Query: "q0"}, {EP: b, Query: "q1"}, {EP: a, Query: "q2"},
	}
	out := h.Run(context.Background(), tasks)
	for i := range tasks {
		if out[i].Task.Query != tasks[i].Query {
			t.Errorf("result %d aligned to %q, want %q", i, out[i].Task.Query, tasks[i].Query)
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
	h := &Handler{}
	out := h.Run(ctx, []Task{{EP: ep, Query: "q0"}, {EP: ep, Query: "q1"}})
	for i, tr := range out {
		if !errors.Is(tr.Err, context.Canceled) {
			t.Errorf("task %d err = %v, want context.Canceled", i, tr.Err)
		}
	}
	if len(ep.queries) != 0 {
		t.Errorf("cancelled run dispatched %d requests, want 0", len(ep.queries))
	}
}

func TestRunFailFastCancelsInFlightSiblings(t *testing.T) {
	hangs := newBlockEndpoint("hung")
	// The failure fires only after the sibling is in flight, so the
	// cancellation must interrupt a genuinely hung request.
	fails := &failEndpoint{name: "bad", after: hangs.started}
	h := &Handler{}
	start := time.Now()
	out, err := h.RunFailFast(context.Background(),
		[]Task{{EP: hangs, Query: "q0"}, {EP: fails, Query: "q1"}})
	if !errors.Is(err, errTerminal) {
		t.Fatalf("err = %v, want the terminal failure", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("fail-fast took %v; the hung sibling was not cancelled", el)
	}
	if hangs.requests.Load() != 1 {
		t.Errorf("hung endpoint saw %d requests, want 1", hangs.requests.Load())
	}
	if !errors.Is(out[0].Err, context.Canceled) {
		t.Errorf("cancelled sibling result = %v, want context.Canceled", out[0].Err)
	}
}

func TestRunFailFastShortCircuitsQueuedTasks(t *testing.T) {
	// One endpoint with a deep queue of slow tasks, one that fails
	// immediately: after the failure the queued tasks must be
	// short-circuited, not dispatched.
	slow := &slowEndpoint{name: "slow", delay: 30 * time.Millisecond}
	fails := &failEndpoint{name: "bad"}
	tasks := []Task{{EP: fails, Query: "boom"}}
	for i := 0; i < 8; i++ {
		tasks = append(tasks, Task{EP: slow, Query: "q"})
	}
	h := &Handler{}
	_, err := h.RunFailFast(context.Background(), tasks)
	if !errors.Is(err, errTerminal) {
		t.Fatalf("err = %v, want the terminal failure", err)
	}
	if got := slow.requests.Load(); got > endpointWindow {
		t.Errorf("slow endpoint saw %d of 8 queued requests, want at most the window %d; queue was not short-circuited", got, endpointWindow)
	}
}

func TestRunFailFastHealthyBatchSucceeds(t *testing.T) {
	a := &gaugeEndpoint{name: "a"}
	b := &gaugeEndpoint{name: "b"}
	h := &Handler{}
	out, err := h.RunFailFast(context.Background(),
		[]Task{{EP: a, Query: "q0"}, {EP: b, Query: "q1"}, {EP: a, Query: "q2"}})
	if err != nil {
		t.Fatalf("healthy batch failed: %v", err)
	}
	for i, tr := range out {
		if tr.Err != nil || tr.Res == nil {
			t.Errorf("task %d: %+v", i, tr)
		}
	}
}

func TestRunRecordsPerTaskDuration(t *testing.T) {
	slow := &slowEndpoint{name: "slow", delay: 15 * time.Millisecond}
	fast := &gaugeEndpoint{name: "fast"}
	h := &Handler{}
	out := h.Run(context.Background(),
		[]Task{{EP: slow, Query: "q0"}, {EP: fast, Query: "q1"}})
	if out[0].Duration < 15*time.Millisecond {
		t.Errorf("slow task duration = %v, want >= 15ms", out[0].Duration)
	}
	if out[1].Duration <= 0 {
		t.Errorf("fast task duration = %v, want > 0", out[1].Duration)
	}
	if out[1].Duration > out[0].Duration {
		t.Errorf("fast task (%v) measured slower than slow task (%v)", out[1].Duration, out[0].Duration)
	}
}

func TestRunShortCircuitedTaskHasZeroDuration(t *testing.T) {
	ep := &gaugeEndpoint{name: "a"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := &Handler{}
	out := h.Run(ctx, []Task{{EP: ep, Query: "q0"}})
	if out[0].Duration != 0 {
		t.Errorf("short-circuited task duration = %v, want 0", out[0].Duration)
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
