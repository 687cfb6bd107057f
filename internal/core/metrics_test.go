package core

import (
	"context"
	"sync"
	"testing"

	"lusail/internal/testfed"
)

// Two different queries run concurrently on one Lusail instance and
// each goroutine reads its own per-call Metrics, which must attribute
// exactly under concurrency. Run under -race this also proves the
// engine shares no mutable per-query state between concurrent
// executions.
func TestConcurrentExecuteMetricsDistinct(t *testing.T) {
	l, _ := newUniLusail(Config{})
	ctx := context.Background()

	const disjoint = `SELECT * WHERE {
		?s <http://ex/advisor> ?p .
		?s <http://ex/takesCourse> ?c .
	}`

	// Warm the analysis caches once so every concurrent run sees the
	// same plan shape regardless of interleaving.
	if _, _, _, err := l.ExecuteStreamTraced(ctx, testfed.Qa, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := l.ExecuteStreamTraced(ctx, disjoint, nil); err != nil {
		t.Fatal(err)
	}

	const iters = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*iters)
	for i := 0; i < iters; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			res, m, _, err := l.ExecuteStreamTraced(ctx, testfed.Qa, nil)
			if err != nil {
				errs <- err
				return
			}
			if res.Len() != 2 {
				t.Errorf("Qa rows = %d, want 2", res.Len())
			}
			if m.Subqueries != 4 {
				t.Errorf("Qa metrics report %d subqueries, want 4 (cross-talk from concurrent query?)", m.Subqueries)
			}
		}()
		go func() {
			defer wg.Done()
			res, m, _, err := l.ExecuteStreamTraced(ctx, disjoint, nil)
			if err != nil {
				errs <- err
				return
			}
			if res.Len() == 0 {
				t.Error("disjoint query returned no rows")
			}
			if m.Subqueries != 1 {
				t.Errorf("disjoint metrics report %d subqueries, want 1 (cross-talk from concurrent query?)", m.Subqueries)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Traced runs concurrently on one instance must keep the two span
// trees disjoint: each trace's subquery spans describe only its
// own query.
func TestConcurrentExecuteTracedDisjointTraces(t *testing.T) {
	l, _ := newUniLusail(Config{})
	ctx := context.Background()
	var wg sync.WaitGroup
	traces := make([]int64, 2)
	queries := []string{testfed.Qa, testfed.QaChain}
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, tr, err := l.ExecuteStreamTraced(ctx, queries[i], nil)
			if err != nil {
				t.Errorf("traced execute: %v", err)
				return
			}
			traces[i] = tr.Root.Int("requests")
		}(i)
	}
	wg.Wait()
	for i, reqs := range traces {
		if reqs <= 0 {
			t.Errorf("trace %d recorded %d requests, want > 0", i, reqs)
		}
	}
}
