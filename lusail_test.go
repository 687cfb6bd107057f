package lusail

import (
	"context"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lusail/internal/engine"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

const ep1Data = `<http://ex/Lee> <http://ex/advisor> <http://ex/Ben> .
<http://ex/Ben> <http://ex/PhDDegreeFrom> <http://ex/MIT> .
<http://ex/MIT> <http://ex/address> "XXX" .
`

const ep2Data = `<http://ex/Kim> <http://ex/advisor> <http://ex/Tim> .
<http://ex/Tim> <http://ex/PhDDegreeFrom> <http://ex/MIT> .
`

const crossQuery = `SELECT ?s ?a WHERE {
	?s <http://ex/advisor> ?p .
	?p <http://ex/PhDDegreeFrom> ?u .
	?u <http://ex/address> ?a .
}`

func twoEndpoints(t *testing.T) (*MemoryEndpoint, *MemoryEndpoint) {
	t.Helper()
	ep1, err := LoadEndpoint("ep1", strings.NewReader(ep1Data))
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := LoadEndpoint("ep2", strings.NewReader(ep2Data))
	if err != nil {
		t.Fatal(err)
	}
	return ep1, ep2
}

func TestFederationQueryAcrossEndpoints(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	fed := New([]Endpoint{ep1, ep2})
	res, m, _, err := fed.QueryStreamTraced(context.Background(), crossQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Lee (local chain at ep1) and Kim (Tim's MIT address lives at
	// ep1: the interlink).
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2: %v", res.Len(), res.Rows)
	}
	if m.Subqueries == 0 || m.Total() <= 0 {
		t.Errorf("metrics incomplete: %+v", m)
	}
	if len(fed.Endpoints()) != 2 {
		t.Error("Endpoints() wrong")
	}
}

func TestLoadEndpointErrors(t *testing.T) {
	if _, err := LoadEndpoint("bad", strings.NewReader("not ntriples")); err == nil {
		t.Error("bad N-Triples accepted")
	}
}

func TestNewEndpointAndStore(t *testing.T) {
	ep := NewEndpoint("fresh")
	ep.Store().Add(rdf.T(rdf.IRI("http://ex/a"), rdf.IRI("http://ex/p"), rdf.Literal("v")))
	res, err := ep.Query(context.Background(), `ASK { ?s <http://ex/p> "v" }`)
	if err != nil || !res.Ask {
		t.Errorf("ask = %+v err=%v", res, err)
	}
}

func TestServeAndConnectHTTP(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	srv1 := httptest.NewServer(Serve(ep1))
	defer srv1.Close()
	srv2 := httptest.NewServer(Serve(ep2))
	defer srv2.Close()

	fed := New([]Endpoint{
		ConnectHTTP("ep1", srv1.URL),
		ConnectHTTP("ep2", srv2.URL),
	})
	res, err := fed.Query(context.Background(), crossQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("rows over HTTP = %d, want 2", res.Len())
	}
}

func TestNewBaseline(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	eps := []Endpoint{ep1, ep2}
	for _, name := range []string{"fedx", "splendid", "hibiscus", "naive"} {
		eng, err := NewBaseline(name, eps)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		res, err := eng.Execute(context.Background(), crossQuery)
		if err != nil {
			t.Errorf("%s execute: %v", name, err)
			continue
		}
		if res.Len() != 2 {
			t.Errorf("%s rows = %d, want 2", name, res.Len())
		}
	}
	if _, err := NewBaseline("nope", eps); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestAskThroughPublicAPI(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	fed := New([]Endpoint{ep1, ep2})
	res, err := fed.Query(context.Background(), `ASK { <http://ex/Tim> <http://ex/PhDDegreeFrom> ?u }`)
	if err != nil || !res.AskForm || !res.Ask {
		t.Errorf("ask = %+v err = %v", res, err)
	}
}

func TestExplainThroughPublicAPI(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	fed := New([]Endpoint{ep1, ep2})
	plan, err := fed.Explain(context.Background(), crossQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Subqueries) < 2 {
		t.Errorf("plan subqueries = %d, want >= 2", len(plan.Subqueries))
	}
	if !strings.Contains(plan.String(), "subquery") {
		t.Errorf("plan text = %q", plan.String())
	}
}

// TestQueryBatchThroughPublicAPI: a workload run as concurrent queries
// on a federation built WithSubqueryCache shares subquery executions —
// it sends fewer requests than a fresh federation per query.
func TestQueryBatchThroughPublicAPI(t *testing.T) {
	requests := func(fed *Federation) (n int64) {
		for _, es := range fed.EndpointStats() {
			n += es.Stats.Requests
		}
		return n
	}
	batch := []string{crossQuery, crossQuery}
	var fresh int64
	for range batch {
		ep1, ep2 := twoEndpoints(t)
		one := New([]Endpoint{ep1, ep2})
		if _, err := one.Query(context.Background(), crossQuery); err != nil {
			t.Fatal(err)
		}
		fresh += requests(one)
	}

	ep1, ep2 := twoEndpoints(t)
	fed := New([]Endpoint{ep1, ep2}, WithSubqueryCache(64, 0))
	errs := make([]error, len(batch))
	rows := make([]int, len(batch))
	var wg sync.WaitGroup
	for i, q := range batch {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			res, err := fed.Query(context.Background(), q)
			if errs[i] = err; err == nil {
				rows[i] = res.Len()
			}
		}(i, q)
	}
	wg.Wait()
	for i := range batch {
		if errs[i] != nil {
			t.Errorf("batch %d: %v", i, errs[i])
			continue
		}
		if rows[i] != 2 {
			t.Errorf("batch %d rows = %d, want 2", i, rows[i])
		}
	}
	if shared := requests(fed); shared >= fresh {
		t.Errorf("identical concurrent queries sent %d requests, a fresh federation per query %d: they should share subquery executions", shared, fresh)
	}
}

// A federation built with no options still reports per-endpoint
// latency: every endpoint is reached through an instrumented client.
func TestObservabilityThroughPublicAPI(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	fed := New([]Endpoint{ep1, ep2})
	ctx := context.Background()

	res, m, _, err := fed.QueryStreamTraced(ctx, crossQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || m.RemoteRequests() == 0 {
		t.Errorf("rows = %d, requests = %d", res.Len(), m.RemoteRequests())
	}

	res, m, tr, err := fed.QueryStreamTraced(ctx, crossQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || m.Total() <= 0 {
		t.Errorf("traced rows = %d, total = %s", res.Len(), m.Total())
	}
	if tr == nil || !strings.Contains(tr.String(), "phase1") {
		t.Fatalf("trace missing phase1 span:\n%s", tr.String())
	}

	an, err := fed.ExplainAnalyze(ctx, crossQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(an.String(), "→ actual") {
		t.Errorf("analysis text missing actuals:\n%s", an.String())
	}

	stats := fed.EndpointStats()
	if len(stats) != 2 {
		t.Fatalf("endpoint stats = %d entries, want 2", len(stats))
	}
	for _, es := range stats {
		if es.Stats.Latency.Count() == 0 {
			t.Errorf("%s: no latency observations", es.Name)
		}
	}
}

// TestSlowQuerySpanTreeCarriesRootTotals: the span tree a slow query
// leaves in the query log is the tree the caller gets back, its root
// stamped with the query's totals before the log renders it.
func TestSlowQuerySpanTreeCarriesRootTotals(t *testing.T) {
	ep1, ep2 := twoEndpoints(t)
	ql := NewQueryLog(QueryLogConfig{
		SlowThreshold: time.Nanosecond,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	fed := New([]Endpoint{ep1, ep2}, WithObservability(ql))
	_, _, tr, err := fed.QueryStreamTraced(context.Background(), crossQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow := ql.Slow()
	if len(slow) != 1 {
		t.Fatalf("slow ring holds %d records, want 1", len(slow))
	}
	firstLine := func(s string) string {
		line, _, _ := strings.Cut(s, "\n")
		return line
	}
	got, want := firstLine(slow[0].SpanTree), firstLine(tr.String())
	if got != want {
		t.Errorf("slow record's root line = %q, the returned trace's = %q", got, want)
	}
	if !strings.Contains(want, "requests=") || !strings.Contains(want, "rows=2") {
		t.Errorf("returned trace root lacks the query's totals: %q", want)
	}
}

// subquerySpans collects the spans carrying a subquery execution
// record (a "query" attribute), in pre-order.
func subquerySpans(sp *Span) []*Span {
	var out []*Span
	if q, _ := sp.Get("query").(string); q != "" {
		out = append(out, sp)
	}
	for _, c := range sp.Children() {
		out = append(out, subquerySpans(c)...)
	}
	return out
}

// TestSubquerySpansCarryTrueRowCounts: every sq* span of a
// sink-delivered query that ran unbound reports the cardinality its
// subquery really has (evaluated on the union graph: subqueries are
// endpoint-local, so that is what the sources return together) — the
// streaming tail included, whose rows never sit in one relation — and
// EXPLAIN ANALYZE shows a finite q-error against that count. A bound
// subquery fetches only the rows its VALUES blocks select, so the
// whole-subquery cardinality is no reference for it.
func TestSubquerySpansCarryTrueRowCounts(t *testing.T) {
	ctx := context.Background()
	queries := []string{
		// One subquery: it is the tail.
		`SELECT ?s ?p ?c WHERE { ?s <http://ex/advisor> ?p . ?s <http://ex/takesCourse> ?c }`,
		`SELECT ?S ?A WHERE { ?S <http://ex/advisor> ?P . ?P <http://ex/PhDDegreeFrom> ?U . ?U <http://ex/address> ?A }`,
		testfed.Qa,
		testfed.QaChain,
	}
	for _, q := range queries {
		ep1, ep2 := testfed.Universities()
		union := engine.New(testfed.UnionStore(ep1, ep2))
		fed := New([]Endpoint{ep1, ep2})
		_, _, tr, err := fed.QueryStreamTraced(ctx, q, func([]Var, []Binding) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		spans := subquerySpans(tr.Root)
		if len(spans) == 0 {
			t.Fatalf("no subquery spans for %s:\n%s", q, tr)
		}
		unbound := 0
		for _, sp := range spans {
			if sp.Get("decision") != nil {
				continue // bound
			}
			unbound++
			text := sp.Get("query").(string)
			want, err := union.Eval(sparql.MustParse(text))
			if err != nil {
				t.Fatal(err)
			}
			if got := sp.Int("rows"); got != int64(want.Len()) {
				t.Errorf("%s rows = %d, the subquery has %d rows: %s", sp.Name, got, want.Len(), text)
			}
		}
		if unbound == 0 {
			t.Errorf("no unbound subquery span for %s", q)
		}

		an, err := fed.ExplainAnalyze(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, sa := range an.Subqueries {
			if !sa.Executed {
				t.Errorf("subquery %d has no execution record: %s", sa.Subquery.ID, q)
				continue
			}
			if qe := sa.QError(); math.IsInf(qe, 0) || math.IsNaN(qe) || qe < 1 {
				t.Errorf("subquery %d q-error = %v", sa.Subquery.ID, qe)
			}
			if sa.Decision != "concurrent" {
				continue
			}
			want, err := union.Eval(sa.Subquery.Query())
			if err != nil {
				t.Fatal(err)
			}
			if sa.ActualRows != int64(want.Len()) {
				t.Errorf("subquery %d actual = %d, the subquery has %d rows", sa.Subquery.ID, sa.ActualRows, want.Len())
			}
		}
	}
}
