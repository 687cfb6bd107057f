package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/sparql"
)

// The executor launches goroutines (one per phase-1 subquery, the
// tail's stream, the request handler's workers) and returns without
// waiting for them when an execution is cut short. Each scenario below
// cuts one short a different way, against an endpoint that stays
// wedged until its request's context ends, and checks that everything
// launched has ended once the execution's context has.

// wedgedFederation is accountingFederation(2) with endpoint 1 hanging
// every request until the request's context is cancelled.
func wedgedFederation() []endpoint.Endpoint {
	eps := accountingFederation(2)
	eps[1] = endpoint.NewFaulty(eps[1], endpoint.FaultConfig{Hang: true})
	return eps
}

// leakPlan is a tail over both endpoints plus, when withOthers is set,
// a materialized phase-1 subquery and a delayed one bound to it.
func leakPlan(withOthers bool) *Plan {
	sq := func(id int, s, o sparql.Var, delayed bool) *Subquery {
		q := accountingSubquery()
		q.ID, q.Sources, q.Delayed = id, []int{0, 1}, delayed
		q.Patterns[0].S, q.Patterns[0].O = sparql.V(string(s)), sparql.V(string(o))
		q.ProjVars = []sparql.Var{s, o}
		return q
	}
	p := &Plan{Subqueries: []*Subquery{sq(0, "s", "o", false)}}
	if withOthers {
		p.Subqueries = append(p.Subqueries, sq(1, "x", "y", false), sq(2, "x", "z", true))
	}
	return p
}

func TestNoGoroutineLeakOnContextCancel(t *testing.T) {
	expectNoGoroutineLeak(t, func() {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(10*time.Millisecond, cancel) // phase 1 is waiting on the wedged endpoint
		err := NewExecutor(wedgedFederation()).Execute(ctx, leakPlan(true), NewSubqueryCache(nil, 0, 0), nil, &Metrics{},
			func([]sparql.Var, []sparql.Binding) error { return nil }, false)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	})
}

func TestNoGoroutineLeakOnLimitEarlyExit(t *testing.T) {
	expectNoGoroutineLeak(t, func() {
		// Planning probes (ASK, COUNT) get through; the subquery itself
		// wedges at endpoint 1, so the live endpoint's row satisfies the
		// LIMIT while the other request is still on the wire.
		eps := accountingFederation(2)
		eps[1] = endpoint.NewFaulty(eps[1], endpoint.FaultConfig{HangOn: "SELECT ?"})
		l := New(eps, Config{})
		res, err := l.Execute(context.Background(), `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } LIMIT 1`)
		if err != nil || res.Len() != 1 {
			t.Errorf("rows = %v, err = %v, want 1 row", res, err)
		}
	})
}

func TestNoGoroutineLeakOnSinkError(t *testing.T) {
	expectNoGoroutineLeak(t, func() {
		boom := errors.New("client went away")
		err := NewExecutor(wedgedFederation()).Execute(context.Background(), leakPlan(false), nil, nil, &Metrics{},
			func([]sparql.Var, []sparql.Binding) error { return boom }, false)
		if err != boom {
			t.Errorf("err = %v, want the sink's own error", err)
		}
	})
}

func TestNoGoroutineLeakOnBudgetExpiry(t *testing.T) {
	expectNoGoroutineLeak(t, func() {
		// The budget runs out while phase 1 waits on the wedged endpoint:
		// BestEffort drops that contribution and the still-pending delayed
		// subquery, and delivers the rest.
		deadline := time.Now().Add(20 * time.Millisecond)
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		dg := endpoint.NewDegrade(endpoint.DegradeBestEffort, deadline)
		rows := 0
		var m Metrics
		err := NewExecutor(wedgedFederation()).Execute(ctx, leakPlan(true), nil, dg, &m,
			func(_ []sparql.Var, chunk []sparql.Binding) error { rows += len(chunk); return nil }, false)
		if err != nil {
			t.Fatalf("err = %v, want a degraded answer", err)
		}
		if rows == 0 || m.Phase2Requests != 0 || dg.DropCount() < 3 {
			t.Errorf("rows = %d, phase-2 requests = %d, drops = %v: want rows, no phase-2 request, and drops for both hung requests and the delayed subquery",
				rows, m.Phase2Requests, dg.Drops())
		}
	})
}

func TestNoGoroutineLeakOnFailFastError(t *testing.T) {
	expectNoGoroutineLeak(t, func() {
		// Endpoint 0 refuses at once; the sibling requests to the wedged
		// endpoint must be cancelled, not left to hang.
		eps := wedgedFederation()
		eps[0] = endpoint.NewFaulty(eps[0], endpoint.FaultConfig{Down: true})
		err := NewExecutor(eps).Execute(context.Background(), leakPlan(true), NewSubqueryCache(nil, 0, 0), nil, &Metrics{},
			func([]sparql.Var, []sparql.Binding) error { return nil }, false)
		if err == nil || errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want the endpoint's own failure", err)
		}
	})
}

// gatedEndpoint hangs bound (VALUES) requests until their context ends
// and fails the tail's request (?s ?o) once the first bound request is
// on the wire; everything else passes through.
type gatedEndpoint struct {
	endpoint.Endpoint
	boundStarted chan struct{}
	once         sync.Once
}

func (g *gatedEndpoint) Query(ctx context.Context, q string) (*sparql.Results, error) {
	switch {
	case strings.Contains(q, "VALUES"):
		g.once.Do(func() { close(g.boundStarted) })
		<-ctx.Done()
		return nil, ctx.Err()
	case strings.Contains(q, "?s "):
		<-g.boundStarted
		return nil, errors.New("tail endpoint broke")
	}
	return g.Endpoint.Query(ctx, q)
}

// TestPhase1FailureDuringPhase2ReportsTheCause: a phase-1 failure while
// a delayed subquery is being evaluated cancels that evaluation; the
// query's error is the failure, not the cancellation it caused.
func TestPhase1FailureDuringPhase2ReportsTheCause(t *testing.T) {
	expectNoGoroutineLeak(t, func() {
		eps := accountingFederation(2)
		eps[1] = &gatedEndpoint{Endpoint: eps[1], boundStarted: make(chan struct{})}
		_, _, err := runPlan(t, context.Background(), NewExecutor(eps), leakPlan(true), nil)
		if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "tail endpoint broke") {
			t.Errorf("err = %v, want the tail endpoint's own failure", err)
		}
	})
}
