package federation

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/sparql"
)

// Task is one (endpoint, query) unit of remote work.
type Task struct {
	EP    endpoint.Endpoint
	Query string
}

// TaskResult pairs a task with its outcome.
type TaskResult struct {
	Task Task
	Res  *sparql.Results
	Err  error
	// Duration is the task's wall-clock time at the federator, from
	// dispatch to response (zero for tasks short-circuited before
	// dispatch). Observability layers use it to attribute per-subquery
	// latency without re-measuring at every call site.
	Duration time.Duration
}

// endpointWindow is how many requests a batch keeps in flight at one
// endpoint. A batch addresses at most the federation's n endpoints, so
// it has at most endpointWindow·n requests on the wire; the window stays
// within the shared transport's idle pool per host, so windowed
// requests reuse keep-alive connections instead of redialling.
const endpointWindow = 4

// Handler is the elastic request handler of the paper's architecture
// (Fig. 4): it fans a batch's tasks out per endpoint, so requests to
// distinct endpoints proceed in parallel and each endpoint has a
// window of up to endpointWindow requests in flight.
type Handler struct {
	inflight atomic.Int64
}

// InFlight reports the number of requests currently on the wire
// through this handler — the live pool depth observability gauges
// scrape.
func (h *Handler) InFlight() int64 { return h.inflight.Load() }

// Run executes all tasks and returns results in task order. Once the
// context is cancelled, remaining tasks are short-circuited with
// ctx.Err() without dispatching them to their endpoints.
func (h *Handler) Run(ctx context.Context, tasks []Task) []TaskResult {
	out, _ := h.run(ctx, tasks, false)
	return out
}

// RunFailFast is Run with errgroup-style fail-fast semantics: the first
// task to fail cancels the sibling in-flight requests and
// short-circuits the not-yet-dispatched ones, and its error is
// returned. Use it when any single failure makes the whole batch
// useless (subquery evaluation, check-query broadcasts); keep Run for
// batches that tolerate per-task errors (plan-time probes under a
// degradation policy).
func (h *Handler) RunFailFast(ctx context.Context, tasks []Task) ([]TaskResult, error) {
	return h.run(ctx, tasks, true)
}

func (h *Handler) run(ctx context.Context, tasks []Task, failFast bool) ([]TaskResult, error) {
	out := make([]TaskResult, len(tasks))
	if len(tasks) == 0 {
		return out, nil
	}
	runCtx := ctx
	var cancel context.CancelFunc
	var errOnce sync.Once
	var firstErr error
	if failFast {
		runCtx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	h.dispatch(runCtx, tasks, func(i int, tr TaskResult, dispatched bool) {
		out[i] = tr
		// Only dispatched failures trigger fail-fast: short-circuited
		// tasks carry the cancellation error some first failure already
		// caused. The winner of this race is necessarily a real failure
		// (or the caller's own cancellation): sibling context.Canceled
		// errors can only occur after some first error already won and
		// triggered the cancel.
		if failFast && dispatched && tr.Err != nil {
			errOnce.Do(func() {
				firstErr = tr.Err
				cancel()
			})
		}
	})
	return out, firstErr
}

// StreamedResult is one completed task delivered by RunStream, tagged
// with its index in the submitted batch.
type StreamedResult struct {
	Index int
	TaskResult
}

// RunStream executes all tasks like Run, but delivers each result on
// the returned channel the moment its endpoint answers instead of
// waiting for the whole batch — the streaming executor starts joining
// (and shipping) a subquery's early partitions while its slow sources
// are still on the wire. The channel is buffered for the full batch
// (a slow consumer never blocks an endpoint worker) and is closed
// after the last task. Cancelling ctx short-circuits not-yet-
// dispatched tasks with ctx.Err(), so callers implement fail-fast by
// cancelling their own derived context.
func (h *Handler) RunStream(ctx context.Context, tasks []Task) <-chan StreamedResult {
	ch := make(chan StreamedResult, len(tasks))
	if len(tasks) == 0 {
		close(ch)
		return ch
	}
	go func() {
		defer close(ch)
		h.dispatch(ctx, tasks, func(i int, tr TaskResult, _ bool) {
			ch <- StreamedResult{Index: i, TaskResult: tr}
		})
	}()
	return ch
}

// dispatch fans the tasks out with one worker per endpoint, each
// keeping up to endpointWindow requests in flight, calling emit exactly
// once per task (possibly from concurrent goroutines) and returning
// when every task has been emitted. dispatched is false for tasks
// short-circuited by context cancellation before reaching their
// endpoint.
func (h *Handler) dispatch(ctx context.Context, tasks []Task, emit func(i int, tr TaskResult, dispatched bool)) {
	// Group task indexes by endpoint.
	groups := make(map[endpoint.Endpoint][]int)
	var order []endpoint.Endpoint
	for i, t := range tasks {
		if _, ok := groups[t.EP]; !ok {
			order = append(order, t.EP)
		}
		groups[t.EP] = append(groups[t.EP], i)
	}
	var wg sync.WaitGroup
	for _, ep := range order {
		idxs := groups[ep]
		sem := make(chan struct{}, endpointWindow)
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			var inner sync.WaitGroup
			for _, i := range idxs {
				// Short-circuit queued tasks once cancelled: no
				// goroutine is spawned and no request dispatched.
				if err := ctx.Err(); err != nil {
					emit(i, TaskResult{Task: tasks[i], Err: err}, false)
					continue
				}
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					emit(i, TaskResult{Task: tasks[i], Err: ctx.Err()}, false)
					continue
				}
				inner.Add(1)
				go func(i int) {
					defer inner.Done()
					defer func() { <-sem }()
					start := time.Now()
					h.inflight.Add(1)
					res, err := tasks[i].EP.Query(ctx, tasks[i].Query)
					h.inflight.Add(-1)
					emit(i, TaskResult{Task: tasks[i], Res: res, Err: err, Duration: time.Since(start)}, true)
				}(i)
			}
			inner.Wait()
		}(idxs)
	}
	wg.Wait()
}

// Broadcast sends one query to each endpoint and returns per-endpoint
// results in endpoint order.
func (h *Handler) Broadcast(ctx context.Context, eps []endpoint.Endpoint, query string) []TaskResult {
	tasks := make([]Task, len(eps))
	for i, ep := range eps {
		tasks[i] = Task{EP: ep, Query: query}
	}
	return h.Run(ctx, tasks)
}
