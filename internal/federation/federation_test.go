package federation

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

func uniFederation() []endpoint.Endpoint {
	ep1, ep2 := testfed.Universities()
	return []endpoint.Endpoint{ep1, ep2}
}

func TestPatternsOfWalksAllGroups(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE {
		?a <http://ex/p> ?b .
		OPTIONAL { ?b <http://ex/q> ?c . ?c <http://ex/r> ?d }
		{ ?a <http://ex/u1> ?x } UNION { ?a <http://ex/u2> ?x }
		FILTER NOT EXISTS { ?a <http://ex/ne> ?y }
	}`)
	pats := PatternsOf(q.Where)
	if len(pats) != 6 {
		t.Errorf("patterns = %d, want 6: %v", len(pats), pats)
	}
}

func TestAskQueryForSharesShape(t *testing.T) {
	// The ASK text keys the stored fact: patterns differing only in
	// variable names share it, anything else does not — including a
	// repeated variable, whose verdict is a different question.
	ask := func(q string) string { return AskQueryFor(sparql.MustParse(q).Where.Patterns[0]) }
	a := ask(`SELECT * WHERE { ?x <http://ex/p> ?y }`)
	if a != ask(`SELECT * WHERE { ?s <http://ex/p> ?o }`) {
		t.Error("same shape must share a probe text")
	}
	if a == ask(`SELECT * WHERE { ?s <http://ex/q> ?o }`) {
		t.Error("different predicates must not share a probe text")
	}
	if a == ask(`SELECT * WHERE { ?x <http://ex/p> ?x }`) {
		t.Error("a repeated variable must not share the open pattern's probe text")
	}
}

func TestAskQueryFor(t *testing.T) {
	tp := sparql.MustParse(`SELECT * WHERE { ?x <http://ex/p> "v" }`).Where.Patterns[0]
	got := AskQueryFor(tp)
	want := `ASK { ?s <http://ex/p> "v" }`
	if got != want {
		t.Errorf("AskQueryFor = %q, want %q", got, want)
	}
	// Repeated variables stay identical.
	tp2 := sparql.MustParse(`SELECT * WHERE { ?x <http://ex/p> ?x }`).Where.Patterns[0]
	if got := AskQueryFor(tp2); got != `ASK { ?s <http://ex/p> ?s }` {
		t.Errorf("repeated var ASK = %q", got)
	}
}

func TestSelectFindsRelevantSources(t *testing.T) {
	eps := uniFederation()
	sel := NewSelector(eps, NewKnowledge(eps))
	q := sparql.MustParse(`SELECT * WHERE {
		?s <http://ex/advisor> ?p .
		?u <http://ex/address> ?a .
		?s <http://ex/noSuchPredicate> ?z .
	}`)
	s, err := sel.Select(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Sources[0], []int{0, 1}) {
		t.Errorf("advisor sources = %v, want both", s.Sources[0])
	}
	if !reflect.DeepEqual(s.Sources[1], []int{0, 1}) {
		t.Errorf("address sources = %v, want both", s.Sources[1])
	}
	if len(s.Sources[2]) != 0 {
		t.Errorf("noSuchPredicate sources = %v, want none", s.Sources[2])
	}
	if s.AskRequests != 6 {
		t.Errorf("ask requests = %d, want 6", s.AskRequests)
	}
}

func TestSelectUsesCache(t *testing.T) {
	eps := uniFederation()
	know := NewKnowledge(eps)
	sel := NewSelector(eps, know)
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://ex/advisor> ?p }`)
	ctx := context.Background()
	s1, err := sel.Select(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if s1.AskRequests != 2 {
		t.Errorf("first run ask requests = %d", s1.AskRequests)
	}
	s2, err := sel.Select(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if s2.AskRequests != 0 {
		t.Errorf("second run ask requests = %d, want 0 (cached)", s2.AskRequests)
	}
	if !reflect.DeepEqual(s1.Sources, s2.Sources) {
		t.Error("cached selection differs")
	}
	if n := know.Stats(KindAsk).Entries; n != 2 {
		t.Errorf("ask facts = %d", n)
	}
	know.Clear()
	if n := know.Stats(KindAsk).Entries; n != 0 {
		t.Error("clear failed")
	}
}

func TestHandlerRunsTasksInOrder(t *testing.T) {
	eps := uniFederation()
	tasks := []Task{
		{EP: eps[0], Query: `ASK { ?s <http://ex/advisor> ?o }`},
		{EP: eps[1], Query: `ASK { ?s <http://ex/advisor> ?o }`},
		{EP: eps[0], Query: `ASK { ?s <http://ex/bogusP> ?o }`},
	}
	res := runAll(t, context.Background(), tasks)
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Err != nil || !res[0].Res.Ask {
		t.Errorf("task 0 = %+v", res[0])
	}
	if res[2].Err != nil || res[2].Res.Ask {
		t.Errorf("task 2 = %+v", res[2])
	}
}

// TestHandlerBroadcast: one query sent to every endpoint is answered
// per endpoint, at the endpoint's index.
func TestHandlerBroadcast(t *testing.T) {
	eps := uniFederation()
	var tasks []Task
	for _, ep := range eps {
		tasks = append(tasks, Task{EP: ep, Query: `ASK { <http://ex/Tim> ?p ?o }`})
	}
	res := runAll(t, context.Background(), tasks)
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Res.Ask {
		t.Error("EP1 should not know Tim as subject")
	}
	if !res[1].Res.Ask {
		t.Error("EP2 should know Tim")
	}
}

func TestHandlerPropagatesErrors(t *testing.T) {
	eps := uniFederation()
	res := runAll(t, context.Background(), []Task{{EP: eps[0], Query: "NOT SPARQL"}})
	if res[0].Err == nil {
		t.Error("expected parse error from endpoint")
	}
}

func TestNaiveMatchesUnionGraph(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	naive := NewNaive(eps, NewKnowledge(eps))

	got, err := naive.Execute(context.Background(), testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}
	union := engine.New(testfed.UnionStore(ep1, ep2))
	want, err := union.Eval(sparql.MustParse(testfed.Qa))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(testfed.Canon(got), testfed.Canon(want)) {
		t.Errorf("naive = %v\nwant  %v", testfed.Canon(got), testfed.Canon(want))
	}
	if got.Len() != 2 {
		// Kim/Joy (DB) and Lee/Ben (OS); Tim and Ann teach no course.
		t.Errorf("Qa rows = %d, want 2", got.Len())
	}
}

func TestNaiveHandlesOptionalAndFilter(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	naive := NewNaive(eps, NewKnowledge(eps))
	q := `SELECT ?P ?C WHERE {
		?S <http://ex/advisor> ?P .
		OPTIONAL { ?P <http://ex/teacherOf> ?C }
		FILTER (STRSTARTS(STR(?P), "http://ex/"))
	}`
	got, err := naive.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	union := engine.New(testfed.UnionStore(ep1, ep2))
	want, _ := union.Eval(sparql.MustParse(q))
	if !reflect.DeepEqual(testfed.Canon(got), testfed.Canon(want)) {
		t.Errorf("naive = %v\nwant  %v", testfed.Canon(got), testfed.Canon(want))
	}
}

func TestNaiveBadQuery(t *testing.T) {
	naive := NewNaive(uniFederation(), nil)
	if _, err := naive.Execute(context.Background(), "junk"); err == nil {
		t.Error("bad query accepted")
	}
}

func TestNaiveContextCancellation(t *testing.T) {
	naive := NewNaive(uniFederation(), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := naive.Execute(ctx, testfed.Qa)
	if err == nil {
		t.Error("cancelled context accepted")
	}
	if !errors.Is(err, context.Canceled) {
		t.Logf("error is %v (acceptable as long as it fails)", err)
	}
}

func TestReconstructTriple(t *testing.T) {
	tp := sparql.MustParse(`SELECT * WHERE { ?s <http://ex/p> "const" }`).Where.Patterns[0]
	row := sparql.Binding{"s": testfed.IRI("x")}
	tr, ok := ReconstructTriple(tp, row)
	if !ok || tr.S != testfed.IRI("x") || tr.O.Value != "const" {
		t.Errorf("reconstruct = %v %v", tr, ok)
	}
	if _, ok := ReconstructTriple(tp, sparql.Binding{}); ok {
		t.Error("unbound variable should fail reconstruction")
	}
}

func TestSelectDegradesOnEndpointFailure(t *testing.T) {
	// Under an active policy, a dead endpoint is treated as
	// not-relevant and recorded as a source-selection drop instead of
	// failing the whole selection.
	ep1, ep2 := testfed.Universities()
	dead := endpoint.NewFaulty(ep2, endpoint.FaultConfig{Down: true})
	know := NewKnowledge([]endpoint.Endpoint{ep1, ep2})
	sel := NewSelector([]endpoint.Endpoint{ep1, dead}, know)
	q := sparql.MustParse(testfed.QaChain)

	// Without a policy the failure surfaces.
	if _, err := sel.SelectPatterns(context.Background(), nil, q.Where.Patterns); err == nil {
		t.Fatal("dead endpoint went unnoticed without a degrade policy")
	}

	dg := endpoint.NewDegrade(endpoint.DegradeBestEffort, time.Time{})
	selection, err := sel.SelectPatterns(context.Background(), dg, q.Where.Patterns)
	if err != nil {
		t.Fatalf("degraded selection failed: %v", err)
	}
	for i, srcs := range selection.Sources {
		for _, s := range srcs {
			if s == 1 {
				t.Errorf("pattern %d still lists the dead endpoint as a source", i)
			}
		}
	}
	if dg.DropCount() == 0 {
		t.Fatal("dead endpoint was not recorded as a drop")
	}
	for _, d := range dg.Drops() {
		if d.Endpoint != "EP2" || d.Phase != "source-selection" {
			t.Errorf("drop = %+v, want EP2@source-selection", d)
		}
	}

	// The failed probes must not be stored as authoritative
	// not-relevant answers: the same knowledge with the endpoint
	// recovered (unwrapped) must re-consult it and find it relevant.
	healthy := NewSelector([]endpoint.Endpoint{ep1, ep2}, know)
	full, err := healthy.SelectPatterns(context.Background(), nil, q.Where.Patterns)
	if err != nil {
		t.Fatalf("healthy selection: %v", err)
	}
	ep2Relevant := false
	for _, srcs := range full.Sources {
		for _, s := range srcs {
			if s == 1 {
				ep2Relevant = true
			}
		}
	}
	if !ep2Relevant {
		t.Error("fixture does not exercise EP2 relevance; test is vacuous")
	}
}
