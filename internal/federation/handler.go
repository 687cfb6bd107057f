package federation

import (
	"context"
	"sync"

	"lusail/internal/endpoint"
	"lusail/internal/sparql"
)

// Task is one (endpoint, query) unit of remote work.
type Task struct {
	EP    endpoint.Endpoint
	Query string
}

// Result is one completed task, tagged with its index in the batch.
type Result struct {
	Index int
	Res   *sparql.Results
	Err   error
}

// endpointWindow is how many requests a batch keeps in flight at one
// endpoint. A batch addresses at most the federation's n endpoints, so
// it has at most endpointWindow·n requests on the wire; the window stays
// within the shared transport's idle pool per host, so windowed
// requests reuse keep-alive connections instead of redialling.
const endpointWindow = 4

// Run is the elastic request handler of the paper's architecture
// (Fig. 4), and the one way a batch of remote work is dispatched. It
// fans the tasks out per endpoint, so requests to distinct endpoints
// proceed in parallel and each endpoint has a window of up to
// endpointWindow requests in flight, and delivers each result on the
// returned channel the moment its endpoint answers. The channel is
// buffered for the whole batch (a slow consumer never blocks an
// endpoint worker) and closed after the last task. Once ctx is
// cancelled, tasks not yet dispatched are delivered with ctx.Err() and
// never sent, so a caller fails fast by cancelling a context of its
// own.
func Run(ctx context.Context, tasks []Task) <-chan Result {
	ch := make(chan Result, len(tasks))
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
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			sem := make(chan struct{}, endpointWindow)
			var inner sync.WaitGroup
			for _, i := range idxs {
				// Short-circuit queued tasks once cancelled: no
				// goroutine is spawned and no request dispatched.
				if err := ctx.Err(); err != nil {
					ch <- Result{Index: i, Err: err}
					continue
				}
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					ch <- Result{Index: i, Err: ctx.Err()}
					continue
				}
				inner.Add(1)
				go func(i int) {
					defer inner.Done()
					res, err := tasks[i].EP.Query(ctx, tasks[i].Query)
					ch <- Result{Index: i, Res: res, Err: err}
					<-sem
				}(i)
			}
			inner.Wait()
		}(groups[ep])
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch
}
