package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

// invalidateOnQuery wraps an endpoint and fires the engine's
// invalidation of it after every Query it serves — the worst-case
// interleaving for an execution: the invalidation (a data-version bump
// or a /debug/invalidate hit) lands after a subquery's computation
// began but before its relation is stored.
type invalidateOnQuery struct {
	endpoint.Endpoint
	mu sync.Mutex
	l  *Lusail
}

func (e *invalidateOnQuery) Query(ctx context.Context, q string) (*sparql.Results, error) {
	res, err := e.Endpoint.Query(ctx, q)
	e.mu.Lock()
	l := e.l
	e.mu.Unlock()
	if l != nil {
		l.InvalidateEndpointCaches(e.Endpoint.Name())
	}
	return res, err
}

// Regression test for the invalidation/store race: an invalidation
// arriving while a plan's phase-1 subqueries are on the wire must
// prevent their relations from being retained. Without the generation
// fence, rows computed against the pre-invalidation data are stored
// AFTER the invalidation ran, resurrecting exactly the state the
// invalidation was meant to drop — a later query would replay it as a
// cache hit.
func TestStreamInvalidationRaceNotStored(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	w1, w2 := &invalidateOnQuery{Endpoint: ep1}, &invalidateOnQuery{Endpoint: ep2}
	l := New([]endpoint.Endpoint{w1, w2}, Config{SubqueryCacheSize: 64})
	ex, c := l.executor, l.sqCache

	// Two required phase-1 subqueries joined on ?P. The advisor one is
	// elected tail (larger estimate) and streams; the teacherOf one lands
	// whole. Behind a collector both reach the cache through Do — the
	// exact stores the mid-flight invalidation must fence off.
	mk := func(text string, proj []sparql.Var, est float64) *Subquery {
		return &Subquery{
			Patterns: sparql.MustParse(text).Where.Patterns,
			Sources:  []int{0, 1}, ProjVars: proj, OptionalGroup: -1, EstCard: est,
		}
	}
	tail := mk(`SELECT * WHERE { ?s <http://ex/advisor> ?P }`, []sparql.Var{"P", "s"}, 100)
	held := mk(`SELECT * WHERE { ?P <http://ex/teacherOf> ?C }`, []sparql.Var{"C", "P"}, 2)
	sqs := []*Subquery{tail, held}

	w1.l, w2.l = l, l

	got, _, err := runPlan(t, context.Background(), ex, &Plan{Subqueries: sqs}, c)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}

	// The query itself is unharmed: its rows are the union graph's.
	want, err := engine.New(testfed.UnionStore(ep1, ep2)).Eval(sparql.MustParse(
		`SELECT ?s ?P ?C WHERE { ?s <http://ex/advisor> ?P . ?P <http://ex/teacherOf> ?C }`))
	if err != nil {
		t.Fatal(err)
	}
	cg := testfed.Canon(&sparql.Results{Vars: got.Vars, Rows: got.Rows})
	if cw := testfed.Canon(want); !reflect.DeepEqual(cg, cw) {
		t.Errorf("rows differ from the oracle under racing invalidation.\n got: %v\nwant: %v", cg, cw)
	}

	// The fence is the point: every store attempt carried a generation
	// older than the invalidations fired mid-flight, so nothing
	// computed against the invalidated snapshot may survive.
	if n := c.Len(); n != 0 {
		t.Fatalf("subquery cache holds %d entries stored across an invalidation, want 0", n)
	}

	// Sanity: the same plan with no invalidation racing it does retain
	// both relations — the fence refuses stale stores, not all stores.
	w1.mu.Lock()
	w1.l = nil
	w1.mu.Unlock()
	w2.mu.Lock()
	w2.l = nil
	w2.mu.Unlock()
	if _, _, err := runPlan(t, context.Background(), ex, &Plan{Subqueries: sqs}, c); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("quiet run stored %d relations, want 2 — the race assertion above is vacuous", c.Len())
	}
}
