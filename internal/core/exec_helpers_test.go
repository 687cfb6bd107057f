package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lusail/internal/sparql"
)

// collectStream accumulates a sink-delivered execution's chunks,
// checking the header stays identical across calls and no chunk
// exceeds the executor's bound.
type collectStream struct {
	t      testing.TB
	vars   []sparql.Var
	rows   []sparql.Binding
	chunks int
}

func (c *collectStream) sink(vars []sparql.Var, rows []sparql.Binding) error {
	c.t.Helper()
	if c.chunks == 0 {
		c.vars = append([]sparql.Var(nil), vars...)
	} else if !reflect.DeepEqual(c.vars, vars) {
		c.t.Errorf("chunk %d header = %v, want stable %v", c.chunks, vars, c.vars)
	}
	c.rows = append(c.rows, rows...)
	c.chunks++
	return nil
}

func (c *collectStream) results() *sparql.Results {
	return &sparql.Results{Vars: c.vars, Rows: c.rows}
}

// runPlan evaluates a hand-built plan through the executor's one entry
// point and collects the stream into a relation, as the materialized
// entry points do (the executor is told the sink keeps its rows).
func runPlan(t testing.TB, ctx context.Context, ex *Executor, p *Plan, cache *SubqueryCache) (*Relation, *Metrics, error) {
	t.Helper()
	return runPlanInto(t, ctx, ex, p, cache, true)
}

// streamPlan is runPlan behind a sink declared to let its rows go, as
// the served streaming path does: the tail is then not kept.
func streamPlan(t testing.TB, ctx context.Context, ex *Executor, p *Plan, cache *SubqueryCache) (*Relation, *Metrics, error) {
	t.Helper()
	return runPlanInto(t, ctx, ex, p, cache, false)
}

func runPlanInto(t testing.TB, ctx context.Context, ex *Executor, p *Plan, cache *SubqueryCache, sinkKeeps bool) (*Relation, *Metrics, error) {
	t.Helper()
	c := &collectStream{t: t}
	m := &Metrics{}
	if err := ex.Execute(ctx, p, cache, nil, m, c.sink, sinkKeeps); err != nil {
		return nil, m, err
	}
	return &Relation{Vars: p.header(), Rows: c.rows, Partitions: 1}, m, nil
}

// cached reads c's retained entry for key without computing, storing or
// joining a computation — what a caller whose rows are not whole gets.
func cached(c *SubqueryCache, ctx context.Context, key string) (*Relation, bool) {
	rel, shared, _ := c.Do(ctx, key, nil, false, false, func() (*Relation, error) { return nil, nil })
	return rel, shared
}

// expectNoGoroutineLeak runs scenario and fails the test unless the
// goroutine count settles back to where it started: everything the
// scenario's executions launched (subquery evaluations, the tail's
// stream, request-handler workers) must end once the execution has
// returned, whether it finished, failed, or was cut short.
func expectNoGoroutineLeak(t *testing.T, scenario func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	scenario()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after settling\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
