package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"lusail/internal/store"

	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

func uniEndpoints() []endpoint.Endpoint {
	ep1, ep2 := testfed.Universities()
	return []endpoint.Endpoint{ep1, ep2}
}

// analyzeQa runs source selection + GJV detection on the paper's Qa.
func analyzeQa(t *testing.T) (*GJVReport, []sparql.TriplePattern, [][]int, []endpoint.Endpoint) {
	t.Helper()
	eps := uniEndpoints()
	q := sparql.MustParse(testfed.Qa)
	sel, err := federation.NewSelector(eps, nil).Select(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecomposer(eps, nil)
	rep, err := d.DetectGJVs(context.Background(), nil, q.Where.Patterns, sel.Sources, TypeConstraints(q.Where.Patterns))
	if err != nil {
		t.Fatal(err)
	}
	return rep, q.Where.Patterns, sel.Sources, eps
}

func TestDetectGJVsOnPaperExample(t *testing.T) {
	rep, _, _, _ := analyzeQa(t)
	// Figure 5: ?U is a GJV (Tim's PhD university is remote); ?P is
	// the paper's false-positive GJV (Ann advises but teaches
	// nothing); ?S and ?C are endpoint-local.
	if !rep.IsGJV("U") {
		t.Error("?U should be a GJV (interlink EP2 -> EP1)")
	}
	if !rep.IsGJV("P") {
		t.Error("?P should be a GJV (Ann false positive, Fig. 5 EP1)")
	}
	if rep.IsGJV("S") {
		t.Error("?S should not be a GJV (students are endpoint-local)")
	}
	if rep.IsGJV("C") {
		t.Error("?C should not be a GJV (courses are endpoint-local)")
	}
}

func TestDetectGJVFalsePositive(t *testing.T) {
	// The paper's §IV false-positive case: ?P in {?S advisor ?P},
	// {?P teacherOf ?C}. At EP1 Ann advises Sam but teaches nothing,
	// so the check query is non-empty and ?P is (safely) flagged.
	eps := uniEndpoints()
	q := sparql.MustParse(`SELECT * WHERE {
		?S <http://ex/advisor> ?P .
		?P <http://ex/teacherOf> ?C .
	}`)
	sel, err := federation.NewSelector(eps, nil).Select(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecomposer(eps, nil)
	rep, err := d.DetectGJVs(context.Background(), nil, q.Where.Patterns, sel.Sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IsGJV("P") {
		t.Error("?P should be flagged as GJV (false positive by design)")
	}
}

func TestDetectGJVBySourceMismatch(t *testing.T) {
	// A predicate present at only one endpoint joined with one present
	// at both: sources differ, GJV without check queries.
	ep1, ep2 := testfed.Universities()
	ep1.Store().Add(rdf.T(testfed.IRI("Lee"), testfed.IRI("mitOnly"), testfed.IRI("X")))
	eps := []endpoint.Endpoint{ep1, ep2}
	q := sparql.MustParse(`SELECT * WHERE {
		?s <http://ex/advisor> ?p .
		?s <http://ex/mitOnly> ?x .
	}`)
	sel, err := federation.NewSelector(eps, nil).Select(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecomposer(eps, nil)
	rep, err := d.DetectGJVs(context.Background(), nil, q.Where.Patterns, sel.Sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IsGJV("s") {
		t.Error("?s should be GJV: its patterns have different relevant sources")
	}
	if rep.CheckQueries != 0 {
		t.Errorf("source-mismatch GJVs need no check queries, sent %d", rep.CheckQueries)
	}
}

func TestDetectGJVsNoSharedVariables(t *testing.T) {
	eps := uniEndpoints()
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://ex/advisor> ?p . ?x <http://ex/address> ?a }`)
	sel, _ := federation.NewSelector(eps, nil).Select(context.Background(), q)
	d := NewDecomposer(eps, nil)
	rep, err := d.DetectGJVs(context.Background(), nil, q.Where.Patterns, sel.Sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.GJVs) != 0 || rep.CheckQueries != 0 {
		t.Errorf("disconnected patterns should produce no GJVs/checks: %+v", rep)
	}
}

func TestCheckQueryShape(t *testing.T) {
	// The Fig. 6 shape: outer pattern keeps constants, the NOT EXISTS
	// pattern replaces non-predicate constants with variables, LIMIT 1.
	from := sparql.TriplePattern{S: sparql.V("S"), P: sparql.C(testfed.IRI("advisor")), O: sparql.V("P")}
	to := sparql.TriplePattern{S: sparql.V("P"), P: sparql.C(testfed.IRI("teacherOf")), O: sparql.C(rdf.Literal("XXX"))}
	got := CheckQuery("P", from, to, rdf.Term{})
	if !strings.Contains(got, "FILTER NOT EXISTS") || !strings.Contains(got, "LIMIT 1") {
		t.Errorf("check query missing NOT EXISTS / LIMIT 1: %s", got)
	}
	if strings.Contains(got, `"XXX"`) {
		t.Errorf("constant in the NOT EXISTS pattern must be replaced by a variable: %s", got)
	}
	if !strings.Contains(got, "<http://ex/teacherOf>") {
		t.Errorf("predicate must be kept: %s", got)
	}
	// It must parse.
	if _, err := sparql.Parse(got); err != nil {
		t.Errorf("check query does not parse: %v\n%s", err, got)
	}
	// With a type constraint.
	got = CheckQuery("P", from, to, testfed.IRI("Professor"))
	if !strings.Contains(got, rdf.RDFType) || !strings.Contains(got, "Professor") {
		t.Errorf("type constraint not included: %s", got)
	}
	if _, err := sparql.Parse(got); err != nil {
		t.Errorf("typed check query does not parse: %v", err)
	}
}

// TestUnanswerableCheckFlagsGlobal: under an active degradation policy
// a check query that fails is dropped and its variable conservatively
// flagged global — over-flagging only splits subqueries more finely —
// where without a policy the failure fails the analysis.
func TestUnanswerableCheckFlagsGlobal(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	q := sparql.MustParse(`SELECT * WHERE {
		?P <http://ex/PhDDegreeFrom> ?U .
		?S <http://ex/advisor> ?P .
	}`)
	healthy := []endpoint.Endpoint{ep1, ep2}
	sel, err := federation.NewSelector(healthy, nil).Select(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewDecomposer(healthy, nil).DetectGJVs(context.Background(), nil, q.Where.Patterns, sel.Sources, nil)
	if err != nil || rep.IsGJV("P") {
		t.Fatalf("fixture: ?P must be local with both endpoints up (gjv=%v, err=%v)", rep.IsGJV("P"), err)
	}

	d := NewDecomposer([]endpoint.Endpoint{ep1, endpoint.NewFaulty(ep2, endpoint.FaultConfig{Down: true})}, nil)
	if _, err := d.DetectGJVs(context.Background(), nil, q.Where.Patterns, sel.Sources, nil); err == nil {
		t.Fatal("a dead endpoint went unnoticed without a degradation policy")
	}
	dg := endpoint.NewDegrade(endpoint.DegradeBestEffort, time.Time{})
	rep, err = d.DetectGJVs(context.Background(), dg, q.Where.Patterns, sel.Sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IsGJV("P") {
		t.Error("?P stayed local although its check at EP2 could not be answered")
	}
	if d := dg.Drops(); len(d) != 1 || d[0].Endpoint != "EP2" || d[0].Phase != "gjv-checks" {
		t.Errorf("drops = %+v, want EP2@gjv-checks", d)
	}
}

func TestCheckQueriesAreCached(t *testing.T) {
	eps := uniEndpoints()
	q := sparql.MustParse(testfed.Qa)
	sel, _ := federation.NewSelector(eps, nil).Select(context.Background(), q)
	d := NewDecomposer(eps, federation.NewKnowledge(eps))
	rep1, err := d.DetectGJVs(context.Background(), nil, q.Where.Patterns, sel.Sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CheckQueries == 0 {
		t.Fatal("expected check queries on first run")
	}
	rep2, err := d.DetectGJVs(context.Background(), nil, q.Where.Patterns, sel.Sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CheckQueries != 0 {
		t.Errorf("second run sent %d check queries, want 0 (cached)", rep2.CheckQueries)
	}
	if len(rep1.GJVs) != len(rep2.GJVs) {
		t.Error("cached GJV result differs")
	}
}

func TestTypeConstraints(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE {
		?x a <http://ex/GraduateStudent> .
		?x <http://ex/advisor> ?p .
		?y a ?cls .
	}`)
	tc := TypeConstraints(q.Where.Patterns)
	if tc["x"] != testfed.IRI("GraduateStudent") {
		t.Errorf("typeOf[x] = %v", tc["x"])
	}
	if _, ok := tc["y"]; ok {
		t.Error("variable class must not constrain")
	}
}

func TestDecomposeQa(t *testing.T) {
	rep, patterns, sources, _ := analyzeQa(t)
	sqs := Decompose(patterns, sources, rep)
	// Fig. 7 decomposition D2: {advisor, takesCourse} merged (their
	// shared vars ?S and ?C are local); teacherOf, PhDDegreeFrom and
	// address separated by the ?P and ?U GJVs.
	if len(sqs) != 4 {
		t.Fatalf("subqueries = %d, want 4: %v", len(sqs), sqs)
	}
	if len(sqs[0].Patterns) != 2 {
		t.Errorf("first subquery should hold advisor+takesCourse: %v", sqs[0])
	}
	for _, sq := range sqs[1:] {
		if len(sq.Patterns) != 1 {
			t.Errorf("GJV-separated subquery should be singleton: %v", sq)
		}
	}
}

func TestDecomposeDisjointQuery(t *testing.T) {
	// No GJVs at all: one subquery (the paper's disjoint case, LUBM
	// Q1/Q2).
	eps := uniEndpoints()
	q := sparql.MustParse(`SELECT * WHERE {
		?s <http://ex/advisor> ?p .
		?s <http://ex/takesCourse> ?c .
	}`)
	sel, _ := federation.NewSelector(eps, nil).Select(context.Background(), q)
	d := NewDecomposer(eps, nil)
	rep, err := d.DetectGJVs(context.Background(), nil, q.Where.Patterns, sel.Sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	sqs := Decompose(q.Where.Patterns, sel.Sources, rep)
	if len(sqs) != 1 || len(sqs[0].Patterns) != 2 {
		t.Errorf("disjoint query should become one subquery: %v", sqs)
	}
}

func TestDecomposeAssumeAllGlobal(t *testing.T) {
	// The ablation mode: every shared variable global => one pattern
	// per subquery.
	eps := uniEndpoints()
	q := sparql.MustParse(testfed.Qa)
	sel, _ := federation.NewSelector(eps, nil).Select(context.Background(), q)
	d := NewDecomposer(eps, nil)
	d.AssumeAllGlobal = true
	rep, err := d.DetectGJVs(context.Background(), nil, q.Where.Patterns, sel.Sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	sqs := Decompose(q.Where.Patterns, sel.Sources, rep)
	if len(sqs) != len(q.Where.Patterns) {
		t.Errorf("ablation should yield one subquery per pattern, got %d", len(sqs))
	}
	if rep.CheckQueries != 0 {
		t.Error("ablation must not send check queries")
	}
}

func TestPushFilters(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE {
		?s <http://ex/advisor> ?p .
		?p <http://ex/age> ?a .
		FILTER (?a > 10)
		FILTER (?s != ?p)
		FILTER (?a > 1 && ?s = ?s)
	}`)
	sq1 := &Subquery{Patterns: q.Where.Patterns[:1]} // vars s,p
	sq2 := &Subquery{Patterns: q.Where.Patterns[1:]} // vars p,a
	global := PushFilters([]*Subquery{sq1, sq2}, q.Where.Filters)
	if len(sq2.Filters) != 1 {
		t.Errorf("sq2 filters = %v, want the ?a filter", sq2.Filters)
	}
	if len(sq1.Filters) != 1 {
		t.Errorf("sq1 filters = %v, want the ?s != ?p filter", sq1.Filters)
	}
	if len(global) != 1 {
		t.Errorf("global = %v, want the mixed-variable filter", global)
	}
}

func TestComputeProjections(t *testing.T) {
	q := sparql.MustParse(testfed.QaChain)
	sq1 := &Subquery{Patterns: q.Where.Patterns[0:2]} // S,P,C
	sq2 := &Subquery{Patterns: q.Where.Patterns[2:3]} // P,U
	sq3 := &Subquery{Patterns: q.Where.Patterns[3:4]} // U,A
	ComputeProjections([]*Subquery{sq1, sq2, sq3}, []sparql.Var{"S", "A"})
	// sq1 needs S (final) and P (join with sq2) but not C.
	if got := sq1.ProjVars; len(got) != 2 || got[0] != "P" || got[1] != "S" {
		t.Errorf("sq1 proj = %v, want [P S]", got)
	}
	if got := sq2.ProjVars; len(got) != 2 || got[0] != "P" || got[1] != "U" {
		t.Errorf("sq2 proj = %v, want [P U]", got)
	}
	if got := sq3.ProjVars; len(got) != 2 || got[0] != "A" || got[1] != "U" {
		t.Errorf("sq3 proj = %v, want [A U]", got)
	}
}

func TestSubqueryRendering(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://ex/advisor> ?p . FILTER (?p != <http://ex/Nobody>) }`)
	sq := &Subquery{Patterns: q.Where.Patterns, Filters: q.Where.Filters, ProjVars: []sparql.Var{"p", "s"}}
	text := sq.Query().String()
	parsed, err := sparql.Parse(text)
	if err != nil {
		t.Fatalf("subquery text does not parse: %v\n%s", err, text)
	}
	if len(parsed.Where.Patterns) != 1 || len(parsed.Where.Filters) != 1 {
		t.Errorf("round-trip lost content: %s", text)
	}
	if s := sq.String(); !strings.Contains(s, "advisor") {
		t.Errorf("String() = %q", s)
	}
}

// roleFixture builds a two-endpoint federation with precise control
// over which instances appear in which roles, to exercise each
// role-combination of the locality check.
func roleFixture(build func(st1, st2 *store.Store)) []endpoint.Endpoint {
	st1, st2 := store.New(), store.New()
	build(st1, st2)
	return []endpoint.Endpoint{
		endpoint.NewLocal("A", st1),
		endpoint.NewLocal("B", st2),
	}
}

func gjvFor(t *testing.T, eps []endpoint.Endpoint, query string) *GJVReport {
	t.Helper()
	q := sparql.MustParse(query)
	sel, err := federation.NewSelector(eps, nil).Select(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecomposer(eps, nil)
	rep, err := d.DetectGJVs(context.Background(), nil, q.Where.Patterns, sel.Sources, TypeConstraints(q.Where.Patterns))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRoleObjectSubjectLocal(t *testing.T) {
	// v flows object(p) -> subject(q); every object of p has a local q
	// triple at both endpoints => local.
	eps := roleFixture(func(st1, st2 *store.Store) {
		for i, st := range []*store.Store{st1, st2} {
			x := testfed.IRI(fmt.Sprintf("x%d", i))
			y := testfed.IRI(fmt.Sprintf("y%d", i))
			st.Add(rdf.T(x, testfed.IRI("p"), y))
			st.Add(rdf.T(y, testfed.IRI("q"), rdf.Literal("v")))
		}
	})
	rep := gjvFor(t, eps, `SELECT * WHERE { ?a <http://ex/p> ?v . ?v <http://ex/q> ?w }`)
	if rep.IsGJV("v") {
		t.Error("?v flagged global despite full co-location")
	}
}

func TestRoleObjectSubjectRemote(t *testing.T) {
	// At endpoint A, p points at an entity whose q triples live at B.
	eps := roleFixture(func(st1, st2 *store.Store) {
		st1.Add(rdf.T(testfed.IRI("x"), testfed.IRI("p"), testfed.IRI("remote")))
		st2.Add(rdf.T(testfed.IRI("remote"), testfed.IRI("q"), rdf.Literal("v")))
		// Both endpoints must be relevant for both patterns, otherwise
		// the source-mismatch rule fires instead of the check query.
		st2.Add(rdf.T(testfed.IRI("x2"), testfed.IRI("p"), testfed.IRI("local2")))
		st2.Add(rdf.T(testfed.IRI("local2"), testfed.IRI("q"), rdf.Literal("v")))
		st1.Add(rdf.T(testfed.IRI("l1"), testfed.IRI("q"), rdf.Literal("v")))
	})
	rep := gjvFor(t, eps, `SELECT * WHERE { ?a <http://ex/p> ?v . ?v <http://ex/q> ?w }`)
	if !rep.IsGJV("v") {
		t.Error("?v not flagged despite the cross-endpoint reference")
	}
	if rep.CheckQueries == 0 {
		t.Error("detection should have required check queries")
	}
}

func TestRoleSubjectSubjectBothDirections(t *testing.T) {
	// Subject-subject: both set differences must be empty. Endpoint A
	// has an entity with p but no q => GJV (even though, as the paper
	// notes, this can be a false positive).
	eps := roleFixture(func(st1, st2 *store.Store) {
		st1.Add(rdf.T(testfed.IRI("s1"), testfed.IRI("p"), rdf.Literal("1")))
		st1.Add(rdf.T(testfed.IRI("s1"), testfed.IRI("q"), rdf.Literal("2")))
		st1.Add(rdf.T(testfed.IRI("odd"), testfed.IRI("p"), rdf.Literal("3"))) // p without q
		st2.Add(rdf.T(testfed.IRI("s2"), testfed.IRI("p"), rdf.Literal("1")))
		st2.Add(rdf.T(testfed.IRI("s2"), testfed.IRI("q"), rdf.Literal("2")))
	})
	rep := gjvFor(t, eps, `SELECT * WHERE { ?v <http://ex/p> ?a . ?v <http://ex/q> ?b }`)
	if !rep.IsGJV("v") {
		t.Error("asymmetric subject sets should flag ?v")
	}
	// Symmetric sets => local.
	eps2 := roleFixture(func(st1, st2 *store.Store) {
		for i, st := range []*store.Store{st1, st2} {
			s := testfed.IRI(fmt.Sprintf("s%d", i))
			st.Add(rdf.T(s, testfed.IRI("p"), rdf.Literal("1")))
			st.Add(rdf.T(s, testfed.IRI("q"), rdf.Literal("2")))
		}
	})
	rep2 := gjvFor(t, eps2, `SELECT * WHERE { ?v <http://ex/p> ?a . ?v <http://ex/q> ?b }`)
	if rep2.IsGJV("v") {
		t.Error("symmetric subject sets wrongly flagged")
	}
}

func TestRoleObjectObjectBothDirections(t *testing.T) {
	// Object-object with one direction non-empty: objects of q at B
	// include a value never appearing as object of p there.
	eps := roleFixture(func(st1, st2 *store.Store) {
		for i, st := range []*store.Store{st1, st2} {
			o := testfed.IRI(fmt.Sprintf("o%d", i))
			st.Add(rdf.T(testfed.IRI(fmt.Sprintf("a%d", i)), testfed.IRI("p"), o))
			st.Add(rdf.T(testfed.IRI(fmt.Sprintf("b%d", i)), testfed.IRI("q"), o))
		}
		st2.Add(rdf.T(testfed.IRI("b9"), testfed.IRI("q"), testfed.IRI("extraObj")))
	})
	rep := gjvFor(t, eps, `SELECT * WHERE { ?a <http://ex/p> ?v . ?b <http://ex/q> ?v }`)
	if !rep.IsGJV("v") {
		t.Error("asymmetric object sets should flag ?v")
	}
}

func TestTypeConstraintNarrowsCheck(t *testing.T) {
	// Without the rdf:type narrowing the check would flag ?v: endpoint
	// A's q objects include an untyped extra entity. With the type
	// pattern in the query (Fig. 6), the extra entity is ignored and
	// the pair stays local — the LUBM Q1 situation.
	eps := roleFixture(func(st1, st2 *store.Store) {
		typ := rdf.IRI(rdf.RDFType)
		cls := testfed.IRI("Thing")
		for i, st := range []*store.Store{st1, st2} {
			v := testfed.IRI(fmt.Sprintf("v%d", i))
			st.Add(rdf.T(v, typ, cls))
			st.Add(rdf.T(testfed.IRI(fmt.Sprintf("a%d", i)), testfed.IRI("p"), v))
			st.Add(rdf.T(testfed.IRI(fmt.Sprintf("b%d", i)), testfed.IRI("q"), v))
		}
		// Untyped extra object of q at endpoint A only.
		st1.Add(rdf.T(testfed.IRI("b8"), testfed.IRI("q"), testfed.IRI("untyped")))
	})
	query := `SELECT * WHERE {
		?v a <http://ex/Thing> .
		?a <http://ex/p> ?v .
		?b <http://ex/q> ?v .
	}`
	rep := gjvFor(t, eps, query)
	if rep.IsGJV("v") {
		t.Error("type-narrowed check should ignore the untyped entity")
	}
}
