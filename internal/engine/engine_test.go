package engine

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

func iri(s string) rdf.Term { return rdf.IRI("http://ex/" + s) }

// uniGraph builds a small university-shaped graph echoing the paper's
// running example (Figure 1).
func uniGraph() rdf.Graph {
	var g rdf.Graph
	adv := iri("advisor")
	takes := iri("takesCourse")
	teaches := iri("teacherOf")
	phd := iri("PhDDegreeFrom")
	addr := iri("address")
	typ := rdf.IRI(rdf.RDFType)

	g.Add(iri("Kim"), typ, iri("GraduateStudent"))
	g.Add(iri("Lee"), typ, iri("GraduateStudent"))
	g.Add(iri("Kim"), adv, iri("Joy"))
	g.Add(iri("Kim"), adv, iri("Tim"))
	g.Add(iri("Lee"), adv, iri("Ben"))
	g.Add(iri("Kim"), takes, iri("DB"))
	g.Add(iri("Lee"), takes, iri("OS"))
	g.Add(iri("Joy"), teaches, iri("DB"))
	g.Add(iri("Ben"), teaches, iri("OS"))
	g.Add(iri("Joy"), phd, iri("CMU"))
	g.Add(iri("Tim"), phd, iri("MIT"))
	g.Add(iri("Ben"), phd, iri("MIT"))
	g.Add(iri("CMU"), addr, rdf.Literal("CCCC"))
	g.Add(iri("MIT"), addr, rdf.Literal("XXX"))
	g.Add(iri("Joy"), iri("age"), rdf.Integer(40))
	g.Add(iri("Tim"), iri("age"), rdf.Integer(55))
	g.Add(iri("Ben"), iri("age"), rdf.Integer(35))
	return g
}

func uniEngine() *Engine { return New(store.FromGraph(uniGraph())) }

func eval(t *testing.T, e *Engine, q string) *sparql.Results {
	t.Helper()
	res, err := e.Eval(sparql.MustParse(q))
	if err != nil {
		t.Fatalf("eval %q: %v", q, err)
	}
	return res
}

func TestEvalSinglePattern(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?s ?o WHERE { ?s <http://ex/advisor> ?o }`)
	if res.Len() != 3 {
		t.Errorf("rows = %d, want 3", res.Len())
	}
}

func TestEvalBGPJoin(t *testing.T) {
	e := uniEngine()
	// Students taking a course taught by their advisor.
	res := eval(t, e, `SELECT ?s ?p WHERE {
		?s <http://ex/advisor> ?p .
		?s <http://ex/takesCourse> ?c .
		?p <http://ex/teacherOf> ?c .
	}`)
	res.Sort()
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2: %v", res.Len(), res.Rows)
	}
	if res.Rows[0]["s"] != iri("Kim") || res.Rows[0]["p"] != iri("Joy") {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
	if res.Rows[1]["s"] != iri("Lee") || res.Rows[1]["p"] != iri("Ben") {
		t.Errorf("row 1 = %v", res.Rows[1])
	}
}

func TestEvalQaFullQuery(t *testing.T) {
	// The paper's Qa over the union graph: students with their
	// advisors' alma mater address. Three answers expected (Fig. 2).
	e := uniEngine()
	res := eval(t, e, `SELECT ?s ?p ?u ?a WHERE {
		?s <http://ex/advisor> ?p .
		?s <http://ex/takesCourse> ?c .
		?p <http://ex/PhDDegreeFrom> ?u .
		?u <http://ex/address> ?a .
	}`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3: %v", res.Len(), res.Rows)
	}
	seen := map[string]bool{}
	for _, r := range res.Rows {
		seen[string(r["s"].Value)+"/"+r["p"].Value+"/"+r["a"].Value] = true
	}
	for _, want := range []string{
		"http://ex/Kim/http://ex/Joy/CCCC",
		"http://ex/Kim/http://ex/Tim/XXX",
		"http://ex/Lee/http://ex/Ben/XXX",
	} {
		if !seen[want] {
			t.Errorf("missing answer %s in %v", want, seen)
		}
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	st := store.New()
	st.Add(rdf.T(iri("a"), iri("knows"), iri("a")))
	st.Add(rdf.T(iri("a"), iri("knows"), iri("b")))
	e := New(st)
	res := eval(t, e, `SELECT ?x WHERE { ?x <http://ex/knows> ?x }`)
	if res.Len() != 1 || res.Rows[0]["x"] != iri("a") {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalFilter(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?p WHERE {
		?p <http://ex/age> ?a . FILTER (?a > 38 && ?a < 50)
	}`)
	if res.Len() != 1 || res.Rows[0]["p"] != iri("Joy") {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalFilterNotExists(t *testing.T) {
	// The shape of Lusail's check query (Fig. 6): advisors that teach
	// no course. Tim has no teacherOf triple.
	e := uniEngine()
	res := eval(t, e, `SELECT ?p WHERE {
		?s <http://ex/advisor> ?p .
		FILTER NOT EXISTS { ?p <http://ex/teacherOf> ?c }
	} LIMIT 1`)
	if res.Len() != 1 || res.Rows[0]["p"] != iri("Tim") {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalExists(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT DISTINCT ?p WHERE {
		?s <http://ex/advisor> ?p .
		FILTER EXISTS { ?p <http://ex/teacherOf> ?c }
	}`)
	res.Sort()
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalOptional(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?p ?c WHERE {
		?s <http://ex/advisor> ?p .
		OPTIONAL { ?p <http://ex/teacherOf> ?c }
	}`)
	// Kim->Joy(DB), Kim->Tim(unbound), Lee->Ben(OS).
	if res.Len() != 3 {
		t.Fatalf("rows = %d: %v", res.Len(), res.Rows)
	}
	unbound := 0
	for _, r := range res.Rows {
		if _, ok := r["c"]; !ok {
			unbound++
			if r["p"] != iri("Tim") {
				t.Errorf("unexpected unbound row %v", r)
			}
		}
	}
	if unbound != 1 {
		t.Errorf("unbound rows = %d, want 1", unbound)
	}
}

func TestEvalOptionalWithFilterOnOuterVar(t *testing.T) {
	// LeftJoin semantics: the optional's filter sees outer bindings.
	e := uniEngine()
	res := eval(t, e, `SELECT ?p ?a WHERE {
		?s <http://ex/advisor> ?p .
		OPTIONAL { ?p <http://ex/age> ?a . FILTER (?a > 38) }
	}`)
	for _, r := range res.Rows {
		if a, ok := r["a"]; ok {
			if a != rdf.Integer(40) && a != rdf.Integer(55) {
				t.Errorf("filtered optional bound to %v", a)
			}
		} else if r["p"] != iri("Ben") {
			t.Errorf("row %v should have matched the optional", r)
		}
	}
}

func TestEvalUnion(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?x WHERE {
		{ ?x <http://ex/teacherOf> <http://ex/DB> } UNION { ?x <http://ex/teacherOf> <http://ex/OS> }
	}`)
	res.Sort()
	if res.Len() != 2 || res.Rows[0]["x"] != iri("Ben") || res.Rows[1]["x"] != iri("Joy") {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalUnionJoinedWithPattern(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?x ?u WHERE {
		?x <http://ex/PhDDegreeFrom> ?u .
		{ ?x <http://ex/teacherOf> <http://ex/DB> } UNION { ?x <http://ex/teacherOf> <http://ex/OS> }
	}`)
	if res.Len() != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalValues(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?p ?u WHERE {
		VALUES ?p { <http://ex/Tim> <http://ex/Ben> }
		?p <http://ex/PhDDegreeFrom> ?u .
	}`)
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r["u"] != iri("MIT") {
			t.Errorf("row %v", r)
		}
	}
}

func TestEvalValuesWithUndef(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?p ?u WHERE {
		VALUES (?p ?u) { (<http://ex/Tim> UNDEF) (UNDEF <http://ex/CMU>) }
		?p <http://ex/PhDDegreeFrom> ?u .
	}`)
	// Tim->MIT matches row 1; Joy->CMU matches row 2.
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalDistinctOrderLimitOffset(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT DISTINCT ?u WHERE { ?p <http://ex/PhDDegreeFrom> ?u } ORDER BY ?u`)
	if res.Len() != 2 || res.Rows[0]["u"] != iri("CMU") || res.Rows[1]["u"] != iri("MIT") {
		t.Fatalf("distinct+order rows = %v", res.Rows)
	}
	res = eval(t, e, `SELECT ?p WHERE { ?p <http://ex/age> ?a } ORDER BY DESC(?a) LIMIT 2`)
	if res.Len() != 2 || res.Rows[0]["p"] != iri("Tim") || res.Rows[1]["p"] != iri("Joy") {
		t.Fatalf("order desc rows = %v", res.Rows)
	}
	res = eval(t, e, `SELECT ?p WHERE { ?p <http://ex/age> ?a } ORDER BY ?a OFFSET 1 LIMIT 1`)
	if res.Len() != 1 || res.Rows[0]["p"] != iri("Joy") {
		t.Fatalf("offset rows = %v", res.Rows)
	}
	res = eval(t, e, `SELECT ?p WHERE { ?p <http://ex/age> ?a } OFFSET 99`)
	if res.Len() != 0 {
		t.Fatalf("large offset rows = %v", res.Rows)
	}
}

func TestEvalCount(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT (COUNT(*) AS ?c) WHERE { ?s <http://ex/advisor> ?p }`)
	if res.Len() != 1 || res.Rows[0]["c"] != rdf.Integer(3) {
		t.Fatalf("count = %v", res.Rows)
	}
	res = eval(t, e, `SELECT (COUNT(DISTINCT ?p) AS ?c) WHERE { ?s <http://ex/advisor> ?p }`)
	if res.Rows[0]["c"] != rdf.Integer(3) {
		t.Fatalf("count distinct = %v", res.Rows)
	}
	res = eval(t, e, `SELECT (COUNT(DISTINCT ?u) AS ?c) WHERE { ?p <http://ex/PhDDegreeFrom> ?u }`)
	if res.Rows[0]["c"] != rdf.Integer(2) {
		t.Fatalf("count distinct u = %v", res.Rows)
	}
}

func TestEvalCountFastPathEdgeCases(t *testing.T) {
	st := store.New()
	st.Add(rdf.T(iri("a"), iri("knows"), iri("a")))
	st.Add(rdf.T(iri("a"), iri("knows"), iri("b")))
	e := New(st)
	// Repeated variable must bypass the index fast path: only the
	// self-loop matches.
	res := eval(t, e, `SELECT (COUNT(*) AS ?c) WHERE { ?x <http://ex/knows> ?x }`)
	if res.Rows[0]["c"] != rdf.Integer(1) {
		t.Errorf("count = %v, want 1", res.Rows[0]["c"])
	}
	// Constant-only positions still count correctly.
	res = eval(t, e, `SELECT (COUNT(*) AS ?c) WHERE { <http://ex/a> <http://ex/knows> ?o }`)
	if res.Rows[0]["c"] != rdf.Integer(2) {
		t.Errorf("count = %v, want 2", res.Rows[0]["c"])
	}
	// COUNT with a filter must not use the fast path.
	res = eval(t, e, `SELECT (COUNT(*) AS ?c) WHERE { ?s <http://ex/knows> ?o . FILTER (?o = <http://ex/b>) }`)
	if res.Rows[0]["c"] != rdf.Integer(1) {
		t.Errorf("filtered count = %v, want 1", res.Rows[0]["c"])
	}
}

func TestEvalAsk(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `ASK { <http://ex/Tim> <http://ex/PhDDegreeFrom> ?u }`)
	if !res.AskForm || !res.Ask {
		t.Errorf("ask = %+v", res)
	}
	res = eval(t, e, `ASK { <http://ex/Tim> <http://ex/teacherOf> ?c }`)
	if res.Ask {
		t.Error("ask should be false")
	}
}

func TestEvalEmptyBGPWithValues(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?x WHERE { VALUES ?x { <http://ex/1> <http://ex/2> } }`)
	if res.Len() != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalProjection(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?s WHERE { ?s <http://ex/advisor> ?p }`)
	if !reflect.DeepEqual(res.Vars, []sparql.Var{"s"}) {
		t.Errorf("vars = %v", res.Vars)
	}
	for _, r := range res.Rows {
		if _, ok := r["p"]; ok {
			t.Error("projection leaked ?p")
		}
	}
}

func TestEvalLimitShortCircuits(t *testing.T) {
	// A large store; LIMIT 1 must not enumerate everything. We cannot
	// observe enumeration directly, but the streaming path plus
	// correctness is covered: exactly one row comes back.
	st := store.New()
	for i := 0; i < 5000; i++ {
		st.Add(rdf.T(iri("s"), iri("p"), rdf.Integer(int64(i))))
	}
	e := New(st)
	res := eval(t, e, `SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o } LIMIT 1`)
	if res.Len() != 1 {
		t.Errorf("rows = %d", res.Len())
	}
}

func TestEvalCartesianProduct(t *testing.T) {
	st := store.New()
	st.Add(rdf.T(iri("a"), iri("p"), iri("b")))
	st.Add(rdf.T(iri("c"), iri("q"), iri("d")))
	e := New(st)
	res := eval(t, e, `SELECT * WHERE { ?x <http://ex/p> ?y . ?z <http://ex/q> ?w }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r := res.Rows[0]
	if r["x"] != iri("a") || r["z"] != iri("c") {
		t.Errorf("row = %v", r)
	}
}

func TestEvalVariablePredicate(t *testing.T) {
	e := uniEngine()
	res := eval(t, e, `SELECT ?p WHERE { <http://ex/Tim> ?p ?o }`)
	// Tim: rdf-less; has advisor(no: he's object), PhDDegreeFrom, age.
	if res.Len() != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestStoreAccessor(t *testing.T) {
	st := store.New()
	e := New(st)
	if e.Store() != st {
		t.Error("Store() does not return the backing store")
	}
}

func TestEvalUnsupportedForm(t *testing.T) {
	e := uniEngine()
	q := sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`)
	q.Form = sparql.Form(99)
	if _, err := e.Eval(q); err == nil {
		t.Error("unknown query form accepted")
	}
}

func TestEvalFiltersAppliedToMaterializedGroups(t *testing.T) {
	// Groups with unions force the materialized path, where filters
	// run through applyFilters rather than the streaming BGP join.
	e := uniEngine()
	res := eval(t, e, `SELECT ?x ?y WHERE {
		{ ?x <http://ex/teacherOf> ?y } UNION { ?x <http://ex/PhDDegreeFrom> ?y }
		FILTER (?y != <http://ex/MIT>)
	}`)
	for _, row := range res.Rows {
		if row["y"] == iri("MIT") {
			t.Errorf("filter not applied to union row: %v", row)
		}
	}
	if res.Len() == 0 {
		t.Error("filter removed everything")
	}
	// A type-erroring filter drops the row rather than failing.
	res = eval(t, e, `SELECT ?x WHERE {
		{ ?x <http://ex/teacherOf> ?y } UNION { ?x <http://ex/PhDDegreeFrom> ?y }
		FILTER (?unbound > 3)
	}`)
	if res.Len() != 0 {
		t.Errorf("type-error filter kept %d rows", res.Len())
	}
	// EXISTS filters work on the materialized path too.
	res = eval(t, e, `SELECT ?x ?y WHERE {
		{ ?x <http://ex/teacherOf> ?y } UNION { ?x <http://ex/PhDDegreeFrom> ?y }
		FILTER EXISTS { ?x <http://ex/age> ?a }
	}`)
	if res.Len() == 0 {
		t.Error("EXISTS filter on materialized group removed everything")
	}
	for _, row := range res.Rows {
		if row["x"] == iri("Ann") {
			t.Errorf("Ann has no age; EXISTS should have filtered %v", row)
		}
	}
}

// TestEvalUnderConcurrentChurn evaluates a 3-pattern chain in a loop
// while a writer keeps moving one link of the chain. The nested-loop
// join matches from inside match callbacks; when every match took the
// store's read lock itself, a writer arriving between an outer and an
// inner match blocked the inner one forever (hence the deadline), and
// a query could see the link half moved. Under one read lock per
// evaluation the chain always has exactly one answer.
func TestEvalUnderConcurrentChurn(t *testing.T) {
	p1, p2, p3 := iri("p1"), iri("p2"), iri("p3")
	link := func(b string) rdf.Graph {
		return rdf.Graph{rdf.T(iri("a"), p1, iri(b)), rdf.T(iri(b), p2, iri("c"))}
	}
	st := store.New()
	st.AddGraph(link("b0"))
	st.Add(rdf.T(iri("c"), p3, iri("d")))
	e := New(st)
	q := sparql.MustParse(`SELECT * WHERE { ?a <http://ex/p1> ?b . ?b <http://ex/p2> ?c . ?c <http://ex/p3> ?d }`)

	stop := make(chan struct{})
	writer := make(chan struct{})
	go func() {
		defer close(writer)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			from, to := "b0", "b1"
			if i%2 == 1 {
				from, to = to, from
			}
			st.Apply(link(to), link(from))
		}
	}()
	readers := make(chan error, 1)
	go func() {
		for i := 0; i < 5000; i++ {
			res, err := e.Eval(q)
			if err == nil && res.Len() != 1 {
				err = fmt.Errorf("evaluation %d saw %d chain answers, want 1 (half-applied churn batch)", i, res.Len())
			}
			if err != nil {
				readers <- err
				return
			}
		}
		readers <- nil
	}()
	select {
	case err := <-readers:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query evaluation deadlocked against a concurrent store writer")
	}
	close(stop)
	<-writer
}
