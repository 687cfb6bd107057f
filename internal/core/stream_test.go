package core

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
	"lusail/internal/trace"
)

// oracle evaluates query over the union graph of the endpoints — the
// reference every execution path is compared against (DESIGN §5).
func oracle(t *testing.T, locals []*endpoint.Local, query string) *sparql.Results {
	t.Helper()
	want, err := engine.New(testfed.UnionStore(locals...)).Eval(sparql.MustParse(query))
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return want
}

// TestExecutionMatchesOracle: for a spread of query shapes — a
// streaming tail, bound phase 2, no eligible tail, OPTIONAL, FILTER,
// UNION, and every blocking solution modifier — the result delivered
// through a sink and the result collected by Execute both equal the
// union-graph oracle's multiset. (Sink-delivered and collected are the
// same executor, so comparing them to each other would prove nothing.)
func TestExecutionMatchesOracle(t *testing.T) {
	queries := []struct {
		name, q string
	}{
		{"disjoint-single-subquery", `SELECT ?s ?p ?c WHERE {
			?s <http://ex/advisor> ?p .
			?s <http://ex/takesCourse> ?c .
		}`},
		{"qa-no-tail", testfed.Qa},
		{"qa-chain", testfed.QaChain},
		{"filter", `SELECT ?S ?A WHERE {
			?S <http://ex/advisor> ?P .
			?P <http://ex/PhDDegreeFrom> ?U .
			?U <http://ex/address> ?A .
			FILTER (?A = "XXX")
		}`},
		// The only phase-1 relation feeds the delayed OPTIONAL subquery's
		// bindings, so nothing is eligible to stream.
		{"optional-no-tail", `SELECT ?S ?P ?C WHERE {
			?S <http://ex/advisor> ?P .
			OPTIONAL { ?P <http://ex/teacherOf> ?C }
		}`},
		{"union", `SELECT ?x WHERE {
			{ ?x <http://ex/teacherOf> ?c } UNION { ?x <http://ex/PhDDegreeFrom> ?u }
		}`},
		{"star", `SELECT * WHERE {
			?s <http://ex/advisor> ?p .
		}`},
		{"distinct", `SELECT DISTINCT ?p WHERE {
			?s <http://ex/advisor> ?p .
			?s <http://ex/takesCourse> ?c .
		}`},
		// Kim has two advisors, so the cut after two rows is unambiguous.
		{"order-by-limit", `SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p } ORDER BY ?s LIMIT 2`},
		{"count", `SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://ex/advisor> ?p }`},
		{"offset", `SELECT ?U WHERE { ?P <http://ex/PhDDegreeFrom> ?U } OFFSET 4`},
		{"ask", `ASK { ?s <http://ex/advisor> ?p . ?p <http://ex/teacherOf> ?c }`},
		{"ask-false", `ASK { ?s <http://ex/advisor> ?p . ?p <http://ex/address> ?a }`},
	}
	// Each shape runs under the default plan and with every subquery
	// delayed into one-row VALUES blocks, the bound path at its
	// smallest block size.
	for _, tc := range queries {
		t.Run(tc.name, func(t *testing.T) {
			for _, small := range []bool{false, true} {
				name := "default"
				if small {
					name = "delay-all-1-row-blocks"
				}
				t.Run(name, func(t *testing.T) {
					cfg := Config{}
					if small {
						cfg.DelayPolicy = DelayAll
					}
					l, locals := newUniLusail(cfg)
					if small {
						l.executor.bindBlockSize = 1
					}
					want := oracle(t, locals, tc.q)
					cw := testfed.Canon(want)

					got, err := l.Execute(context.Background(), tc.q)
					if err != nil {
						t.Fatalf("Execute: %v", err)
					}
					c := &collectStream{t: t}
					res, _, _, err := l.ExecuteStreamTraced(context.Background(), tc.q, c.sink)
					if err != nil {
						t.Fatalf("ExecuteStream: %v", err)
					}
					if want.AskForm {
						if !got.AskForm || got.Ask != want.Ask || !res.AskForm || res.Ask != want.Ask {
							t.Errorf("ASK = %v collected, %v sink-delivered, oracle says %v", got.Ask, res.Ask, want.Ask)
						}
						if c.chunks != 0 {
							t.Errorf("ASK delivered %d chunks, want 0", c.chunks)
						}
						return
					}
					if cg := testfed.Canon(got); !reflect.DeepEqual(cg, cw) {
						t.Errorf("collected rows differ from the oracle.\n got: %v\nwant: %v", cg, cw)
					}
					if c.chunks == 0 {
						c.vars = res.Vars // nothing delivered: the summary carries the header
					}
					if cg := testfed.Canon(c.results()); !reflect.DeepEqual(cg, cw) {
						t.Errorf("sink-delivered rows differ from the oracle.\n got: %v\nwant: %v", cg, cw)
					}
					if res.Len() != want.Len() || res.Streamed != len(c.rows) || res.Rows != nil {
						t.Errorf("summary Len() = %d, Streamed = %d, Rows = %v; delivered %d, oracle has %d",
							res.Len(), res.Streamed, res.Rows, len(c.rows), want.Len())
					}
				})
			}
		})
	}
}

// TestOrderBySurvivesTheSink: a blocking modifier's row order is the
// oracle's, delivered through a sink and collected alike.
func TestOrderBySurvivesTheSink(t *testing.T) {
	l, locals := newUniLusail(Config{})
	q := `SELECT ?s ?U WHERE { ?s <http://ex/PhDDegreeFrom> ?U } ORDER BY DESC(?s)`
	want := oracle(t, locals, q)
	got, err := l.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	c := &collectStream{t: t}
	if _, _, _, err := l.ExecuteStreamTraced(context.Background(), q, c.sink); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("collected order = %v, want %v", got.Rows, want.Rows)
	}
	if !reflect.DeepEqual(c.rows, want.Rows) {
		t.Errorf("sink-delivered order = %v, want %v", c.rows, want.Rows)
	}
}

// TestNoTailStreamIsChunked: a plan with no eligible tail emits its
// pre-joined accumulator in bounded chunks rather than as one slab.
func TestNoTailStreamIsChunked(t *testing.T) {
	n := 2*streamChunkRows + 10
	rel := &Relation{Vars: []sparql.Var{"x"}, Partitions: 1}
	for i := 0; i < n; i++ {
		rel.Rows = append(rel.Rows, sparql.Binding{"x": rdf.Integer(int64(i))})
	}
	var sizes []int
	err := NewExecutor(nil).Execute(context.Background(), &Plan{extra: []*Relation{rel}}, nil, nil, &Metrics{},
		func(_ []sparql.Var, rows []sparql.Binding) error {
			sizes = append(sizes, len(rows))
			return nil
		}, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{streamChunkRows, streamChunkRows, 10}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("chunk sizes = %v, want %v", sizes, want)
	}
}

// TestExecuteStreamLimitStopsEarly: LIMIT truncates the stream at
// exactly the requested row count and reports success.
func TestExecuteStreamLimitStopsEarly(t *testing.T) {
	l, locals := newUniLusail(Config{})
	q := `SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p } LIMIT 2`
	c := &collectStream{t: t}
	res, _, _, err := l.ExecuteStreamTraced(context.Background(), q, c.sink)
	if err != nil {
		t.Fatalf("ExecuteStream: %v", err)
	}
	if len(c.rows) != 2 || res.Len() != 2 {
		t.Errorf("delivered %d rows (Len %d), want 2", len(c.rows), res.Len())
	}
	// Every delivered row must appear in the oracle's unlimited result.
	full := oracle(t, locals, `SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p }`)
	valid := map[string]bool{}
	for _, k := range testfed.Canon(full) {
		valid[k] = true
	}
	for _, k := range testfed.Canon(c.results()) {
		if !valid[k] {
			t.Errorf("streamed row %q not in the full result", k)
		}
	}
	// A collected execution stops at the limit too.
	got, err := l.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("collected %d rows, want 2", got.Len())
	}
}

// TestExecuteStreamSinkAbort: a sink error cancels the query and
// surfaces unchanged.
func TestExecuteStreamSinkAbort(t *testing.T) {
	l, _ := newUniLusail(Config{})
	boom := context.DeadlineExceeded
	_, _, _, err := l.ExecuteStreamTraced(context.Background(),
		`SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p }`,
		func(vars []sparql.Var, rows []sparql.Binding) error { return boom })
	if err != boom {
		t.Errorf("err = %v, want the sink's own error", err)
	}
}

// TestExecuteStreamDegradeDrop: a dead endpoint under skip-endpoint
// degradation drops its contribution mid-stream; the surviving rows
// flow and the summary reports incompleteness — PR-4 semantics hold
// per-chunk.
func TestExecuteStreamDegradeDrop(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	dead := endpoint.NewFaulty(ep2, endpoint.FaultConfig{Down: true})
	l := New([]endpoint.Endpoint{ep1, dead}, Config{Degradation: endpoint.DegradeSkipEndpoint})

	q := `SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p }`
	// The reference for a degraded answer is the surviving partition's.
	want := oracle(t, []*endpoint.Local{ep1}, q)
	c := &collectStream{t: t}
	res, m, _, err := l.ExecuteStreamTraced(context.Background(), q, c.sink)
	if err != nil {
		t.Fatalf("ExecuteStream: %v", err)
	}
	if !reflect.DeepEqual(testfed.Canon(c.results()), testfed.Canon(want)) {
		t.Errorf("degraded streamed rows differ from the surviving endpoint's answer")
	}
	if res.Completeness == nil || res.Completeness.Complete {
		t.Errorf("Completeness = %+v, want incomplete", res.Completeness)
	}
	if m.DroppedEndpoints == 0 {
		t.Error("DroppedEndpoints = 0, want > 0")
	}
}

// TestBudgetExpiredDropsDelayed: with a BestEffort budget already
// expired, the executor skips the remaining delayed subqueries
// (annotating them as dropped) but still streams the tail.
func TestBudgetExpiredDropsDelayed(t *testing.T) {
	ex := NewExecutor(accountingFederation(2))
	tail := &Subquery{
		Patterns: []sparql.TriplePattern{{
			S: sparql.V("s"), P: sparql.C(testfed.IRI("p")), O: sparql.V("o"),
		}},
		Sources:  []int{0, 1},
		ProjVars: []sparql.Var{"s", "o"},
	}
	delayed := &Subquery{
		ID: 1,
		Patterns: []sparql.TriplePattern{{
			S: sparql.V("x"), P: sparql.C(testfed.IRI("q")), O: sparql.V("y"),
		}},
		Sources:  []int{0, 1},
		ProjVars: []sparql.Var{"x", "y"},
		Delayed:  true,
	}
	// Expired budget: deadline in the past.
	dg := endpoint.NewDegrade(endpoint.DegradeBestEffort, time.Now().Add(-time.Second))

	delivered := 0
	var m Metrics
	err := ex.Execute(context.Background(), &Plan{Subqueries: []*Subquery{tail, delayed}}, nil, dg, &m,
		func(vars []sparql.Var, rows []sparql.Binding) error {
			delivered += len(rows)
			return nil
		}, false)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if m.Phase2Requests != 0 {
		t.Errorf("Phase2Requests = %d, want 0 (budget expired before phase 2)", m.Phase2Requests)
	}
	if dg.DropCount() == 0 {
		t.Error("no drop recorded, want the delayed subquery annotated as dropped")
	}
	// The patterns here match nothing (accountingFederation stores
	// <http://ex/p> triples, which IS the tail pattern), so the tail
	// still streams its rows.
	if delivered == 0 {
		t.Error("tail delivered no rows despite expired budget")
	}
}

// TestCachedTailReplays: a tail found in the cache is replayed without
// a request, and its span says so, whatever the sink; a tail that goes
// to the wire is retained for the next query only behind a sink that
// holds every row anyway.
func TestCachedTailReplays(t *testing.T) {
	ex := NewExecutor(uniEndpoints())
	cache := NewSubqueryCache(nil, 0, 0)
	advisor := func() *Subquery {
		return &Subquery{
			Patterns: sparql.MustParse(`SELECT * WHERE { ?s <http://ex/advisor> ?p }`).Where.Patterns,
			Sources:  []int{0, 1}, ProjVars: []sparql.Var{"s", "p"}, OptionalGroup: -1, EstCard: 4,
		}
	}
	// Beside a delayed subquery on ?p, advisor feeds the VALUES blocks: it
	// is materialized, and so cached, even behind a sink that lets go.
	degree := &Subquery{
		ID:       1,
		Patterns: sparql.MustParse(`SELECT * WHERE { ?p <http://ex/PhDDegreeFrom> ?u }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"p", "u"}, OptionalGroup: -1, EstCard: 9, Delayed: true,
	}
	if _, _, err := streamPlan(t, context.Background(), ex, &Plan{Subqueries: []*Subquery{advisor(), degree}}, cache); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d relations after the first plan, want 1", cache.Len())
	}

	tr := trace.New("q")
	ctx := trace.WithSpan(context.Background(), tr.Root)
	rel, stats, err := streamPlan(t, ctx, ex, &Plan{Subqueries: []*Subquery{advisor()}}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 4 || stats.Phase1Requests != 0 {
		t.Errorf("replayed tail: %d rows over %d requests, want 4 over 0", len(rel.Rows), stats.Phase1Requests)
	}
	sp := tr.Root.Find("sq0")
	if sp == nil {
		t.Fatalf("no span for the replayed tail:\n%s", tr)
	}
	if shared, _ := sp.Get("shared").(bool); !shared || sp.Int("rows") != 4 || sp.Int("requests") != 0 {
		t.Errorf("replayed tail span = %s, want shared, rows=4, requests=0", sp)
	}

	takes := func() *Plan {
		return &Plan{Subqueries: []*Subquery{{
			Patterns: sparql.MustParse(`SELECT * WHERE { ?x <http://ex/takesCourse> ?c }`).Where.Patterns,
			Sources:  []int{0, 1}, ProjVars: []sparql.Var{"x", "c"}, OptionalGroup: -1, EstCard: 3,
		}}}
	}
	// Behind a sink that lets its rows go, a tail that went to the wire is
	// not kept: the repeat goes to the wire again.
	for i := 0; i < 2; i++ {
		_, stats, err := streamPlan(t, context.Background(), ex, takes(), cache)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Phase1Requests != 2 || cache.Len() != 1 {
			t.Errorf("streamed run %d: %d requests, %d cached relations, want 2 and 1", i, stats.Phase1Requests, cache.Len())
		}
	}
	// Behind a collector it is kept whole, and both kinds of sink replay it.
	first, stats, err := runPlan(t, context.Background(), ex, takes(), cache)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Phase1Requests != 2 || cache.Len() != 2 {
		t.Errorf("collected run: %d requests, %d cached relations, want 2 and 2", stats.Phase1Requests, cache.Len())
	}
	for name, run := range map[string]func(testing.TB, context.Context, *Executor, *Plan, *SubqueryCache) (*Relation, *Metrics, error){
		"collected": runPlan, "streamed": streamPlan,
	} {
		again, stats, err := run(t, context.Background(), ex, takes(), cache)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Phase1Requests != 0 || len(again.Rows) != len(first.Rows) || len(first.Rows) == 0 {
			t.Errorf("%s repeat: %d rows over %d requests, want %d over 0", name, len(again.Rows), stats.Phase1Requests, len(first.Rows))
		}
	}
}

// TestConcurrentTailsShareOneComputation: executions that keep their
// tail share it in flight like any other subquery, and each delivers
// every row.
func TestConcurrentTailsShareOneComputation(t *testing.T) {
	ex := NewExecutor(uniEndpoints())
	cache := NewSubqueryCache(nil, 0, 0)
	const n = 4
	var wg sync.WaitGroup
	var requests, rows atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, stats, err := runPlan(t, context.Background(), ex, &Plan{Subqueries: []*Subquery{{
				Patterns: sparql.MustParse(`SELECT * WHERE { ?s <http://ex/advisor> ?p }`).Where.Patterns,
				Sources:  []int{0, 1}, ProjVars: []sparql.Var{"s", "p"}, OptionalGroup: -1, EstCard: 4,
			}}}, cache)
			if err != nil {
				t.Error(err)
				return
			}
			requests.Add(int64(stats.Phase1Requests))
			rows.Add(int64(len(rel.Rows)))
		}()
	}
	wg.Wait()
	if requests.Load() != 2 || rows.Load() != 4*n {
		t.Errorf("%d executions: %d requests, %d rows, want 2 and %d", n, requests.Load(), rows.Load(), 4*n)
	}
}
