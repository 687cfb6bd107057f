package stats

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

func v(name string) sparql.Elem { return sparql.V(name) }
func c(iri string) sparql.Elem  { return sparql.C(rdf.IRI(iri)) }
func tp(s, p, o sparql.Elem) sparql.TriplePattern {
	return sparql.TriplePattern{S: s, P: p, O: o}
}

// memSink is the smallest Sink: it keeps the last summary stored and
// refuses a store captured before its generation moved. The real one
// (federation.Knowledge) has its own suite.
type memSink struct {
	gen uint64
	sum *Summary
}

func (m *memSink) Gen(string) uint64 { return m.gen }
func (m *memSink) StoreSummary(gen uint64, sum *Summary) bool {
	if gen != m.gen {
		return false
	}
	m.sum = sum
	return true
}

// ep1Summary harvests the Figure-1 EP1 fixture (10 triples, 6
// predicates).
func ep1Summary(t *testing.T) *Summary {
	t.Helper()
	ep1, _ := testfed.Universities()
	sink := &memSink{}
	if err := New([]endpoint.Endpoint{ep1}, Config{}, sink).Refresh(context.Background()); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if sink.sum == nil {
		t.Fatal("no summary after refresh")
	}
	return sink.sum
}

func TestHarvestSummary(t *testing.T) {
	sum := ep1Summary(t)
	if sum.Total != 10 {
		t.Fatalf("Total = %v, want 10", sum.Total)
	}
	if len(sum.Predicates) != 6 {
		t.Fatalf("predicates = %d, want 6", len(sum.Predicates))
	}
	adv := sum.Predicates[testfed.NS+"advisor"]
	if adv.Triples != 2 || adv.DistinctSubjects != 2 || adv.DistinctObjects != 2 {
		t.Fatalf("advisor stats = %+v", adv)
	}
	takes := sum.Predicates[testfed.NS+"takesCourse"]
	if takes.Triples != 2 || takes.DistinctObjects != 1 {
		t.Fatalf("takesCourse stats = %+v", takes)
	}
	if got := sum.Classes[testfed.NS+"GraduateStudent"]; got != 2 {
		t.Fatalf("GraduateStudent count = %v, want 2", got)
	}
	if !sum.Versioned || sum.Version != 1 {
		t.Fatalf("version = (%v, %v), want (1, true)", sum.Version, sum.Versioned)
	}
	if sum.Queries == 0 {
		t.Fatal("harvest issued no queries")
	}

	// Pair matrices: Lee and Sam both hold advisor and takesCourse;
	// only Ben is both an advisee (advisor-object) and a teacher.
	if got, ok := sum.Star(testfed.NS+"advisor", testfed.NS+"takesCourse"); !ok || got != 2 {
		t.Fatalf("Star(advisor, takesCourse) = (%v, %v), want (2, true)", got, ok)
	}
	if got, ok := sum.Chain(testfed.NS+"advisor", testfed.NS+"teacherOf"); !ok || got != 1 {
		t.Fatalf("Chain(advisor, teacherOf) = (%v, %v), want (1, true)", got, ok)
	}
	if got, ok := sum.Chain(testfed.NS+"advisor", testfed.NS+"PhDDegreeFrom"); !ok || got != 2 {
		t.Fatalf("Chain(advisor, PhDDegreeFrom) = (%v, %v), want (2, true)", got, ok)
	}
	if got, ok := sum.Obj(testfed.NS+"takesCourse", testfed.NS+"teacherOf"); !ok || got != 1 {
		t.Fatalf("Obj(takesCourse, teacherOf) = (%v, %v), want (1, true)", got, ok)
	}
}

func TestPatternCard(t *testing.T) {
	sum := ep1Summary(t)
	cases := []struct {
		name string
		tp   sparql.TriplePattern
		want float64
		ok   bool
	}{
		{"all-var", tp(v("s"), v("p"), v("o")), 10, true},
		{"pred", tp(v("s"), c(testfed.NS+"advisor"), v("o")), 2, true},
		{"class", tp(v("s"), c(rdf.RDFType), c(testfed.NS+"GraduateStudent")), 2, true},
		{"absent-pred", tp(v("s"), c(testfed.NS+"nope"), v("o")), 0, true},
		{"const-obj", tp(v("s"), c(testfed.NS+"takesCourse"), c(testfed.NS+"OS")), 2, true},
		{"const-subj", tp(c(testfed.NS+"Lee"), c(testfed.NS+"advisor"), v("o")), 1, true},
		{"var-pred-const", tp(c(testfed.NS+"Lee"), v("p"), v("o")), 0, false},
	}
	for _, tc := range cases {
		got, ok := sum.PatternCard(tc.tp)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("%s: PatternCard = (%v, %v), want (%v, %v)", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

func TestRelevant(t *testing.T) {
	sum := ep1Summary(t)
	cases := []struct {
		name     string
		tp       sparql.TriplePattern
		relevant bool
		ok       bool
	}{
		{"all-var", tp(v("s"), v("p"), v("o")), true, true},
		{"present-pred", tp(v("s"), c(testfed.NS+"advisor"), v("o")), true, true},
		{"absent-pred", tp(v("s"), c(testfed.NS+"nope"), v("o")), false, true},
		{"present-class", tp(v("s"), c(rdf.RDFType), c(testfed.NS+"GraduateStudent")), true, true},
		{"absent-class", tp(v("s"), c(rdf.RDFType), c(testfed.NS+"Nope")), false, true},
		{"const-subj-needs-probe", tp(c(testfed.NS+"Lee"), c(testfed.NS+"advisor"), v("o")), false, false},
		{"const-obj-needs-probe", tp(v("s"), c(testfed.NS+"takesCourse"), c(testfed.NS+"OS")), false, false},
	}
	for _, tc := range cases {
		relevant, ok := sum.Relevant(tc.tp)
		if ok != tc.ok || relevant != tc.relevant {
			t.Errorf("%s: Relevant = (%v, %v), want (%v, %v)", tc.name, relevant, ok, tc.relevant, tc.ok)
		}
	}
}

func TestCheckNonEmpty(t *testing.T) {
	sum := ep1Summary(t)
	advisor := tp(v("S"), c(testfed.NS+"advisor"), v("P"))
	teacherOf := tp(v("P"), c(testfed.NS+"teacherOf"), v("C"))
	phd := tp(v("P"), c(testfed.NS+"PhDDegreeFrom"), v("U"))

	// Ann is an advisor who teaches nothing: some advisor-object lacks a
	// teacherOf subject, and tpFrom is unconstrained, so the gap is
	// definitive.
	nonEmpty, ok := sum.CheckNonEmpty("P", advisor, teacherOf, rdf.Term{})
	if !ok || !nonEmpty {
		t.Fatalf("advisor->teacherOf = (%v, %v), want (true, true)", nonEmpty, ok)
	}
	// Every advisor (Ben, Ann) holds a PhDDegreeFrom: covered >= from,
	// so the check is empty.
	nonEmpty, ok = sum.CheckNonEmpty("P", advisor, phd, rdf.Term{})
	if !ok || nonEmpty {
		t.Fatalf("advisor->PhDDegreeFrom = (%v, %v), want (false, true)", nonEmpty, ok)
	}
	// Covered verdicts survive narrowing: with a type constraint the
	// candidate set only shrinks.
	nonEmpty, ok = sum.CheckNonEmpty("P", advisor, phd, rdf.IRI(testfed.NS+"GraduateStudent"))
	if !ok || nonEmpty {
		t.Fatalf("advisor->PhD narrowed = (%v, %v), want (false, true)", nonEmpty, ok)
	}
	// Gap verdicts do NOT survive narrowing: a type constraint might
	// exclude exactly the uncovered candidates, so the probe must run.
	_, ok = sum.CheckNonEmpty("P", advisor, teacherOf, rdf.IRI(testfed.NS+"GraduateStudent"))
	if ok {
		t.Fatal("narrowed gap verdict should fall back to the probe")
	}
	// Absent tpFrom predicate: no candidates, empty, definitive.
	nonEmpty, ok = sum.CheckNonEmpty("P",
		tp(v("S"), c(testfed.NS+"nope"), v("P")), teacherOf, rdf.Term{})
	if !ok || nonEmpty {
		t.Fatalf("absent-pred check = (%v, %v), want (false, true)", nonEmpty, ok)
	}
}

func TestPairCard(t *testing.T) {
	sum := ep1Summary(t)
	a := tp(v("S"), c(testfed.NS+"takesCourse"), v("C"))
	b := tp(v("P"), c(testfed.NS+"teacherOf"), v("C"))
	got, ok := sum.PairCard("C", a, b)
	if !ok || got != 1 {
		t.Fatalf("PairCard(C, takesCourse, teacherOf) = (%v, %v), want (1, true)", got, ok)
	}
	// Variable predicate: not covered.
	if _, ok := sum.PairCard("C", tp(v("S"), v("p"), v("C")), b); ok {
		t.Fatal("variable predicate should not be answerable")
	}
}

// churnyEndpoint wraps a Local and fires a hook after the Nth query —
// the harness for racing churn and invalidation against a harvest.
type churnyEndpoint struct {
	*endpoint.Local
	after int32
	n     atomic.Int32
	hook  func()
}

func (c *churnyEndpoint) Query(ctx context.Context, q string) (*sparql.Results, error) {
	if c.n.Add(1) == c.after && c.hook != nil {
		c.hook()
	}
	return c.Local.Query(ctx, q)
}

// TestRefreshDiscardsChurnMidHarvest is the churn-under-refresh
// regression test: the endpoint's data version moves while the harvest
// is paging, so the torn summary must be discarded, not served.
func TestRefreshDiscardsChurnMidHarvest(t *testing.T) {
	ep1, _ := testfed.Universities()
	churny := &churnyEndpoint{Local: ep1, after: 3}
	churny.hook = func() {
		// Real churn, not just a version bump: the later aggregation
		// queries see different data than the earlier ones.
		ep1.ApplyChurn(rdf.Graph{rdf.T(testfed.IRI("New"), rdf.IRI(testfed.NS+"advisor"), testfed.IRI("Ben"))}, nil)
	}
	sink := &memSink{}
	s := New([]endpoint.Endpoint{churny}, Config{}, sink)
	err := s.Refresh(context.Background())
	if err == nil || !strings.Contains(err.Error(), "churned") {
		t.Fatalf("Refresh = %v, want churn discard", err)
	}
	if st := s.Stats(); st.Discards != 1 {
		t.Fatalf("Discards = %d, want 1", st.Discards)
	}
	if sink.sum != nil {
		t.Fatal("torn summary stored")
	}
	// A re-harvest against the now-quiet endpoint succeeds and carries
	// the post-churn version.
	churny.hook = nil
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatalf("re-refresh: %v", err)
	}
	sum := sink.sum
	if sum == nil || sum.Version != 2 {
		t.Fatalf("post-churn summary = %+v, want version 2", sum)
	}
	if sum.Predicates[testfed.NS+"advisor"].Triples != 3 {
		t.Fatalf("post-churn advisor triples = %v, want 3", sum.Predicates[testfed.NS+"advisor"].Triples)
	}
}

// TestRefusedStoreIsADiscard: a sink that was invalidated while the
// harvest ran refuses the summary, and the service reports the harvest
// as discarded, not stored.
func TestRefusedStoreIsADiscard(t *testing.T) {
	ep1, _ := testfed.Universities()
	churny := &churnyEndpoint{Local: ep1, after: 3}
	sink := &memSink{}
	churny.hook = func() { sink.gen++ }
	s := New([]endpoint.Endpoint{churny}, Config{}, sink)
	err := s.Refresh(context.Background())
	if err == nil || !strings.Contains(err.Error(), "invalidated") {
		t.Fatalf("Refresh = %v, want invalidation discard", err)
	}
	if st := s.Stats(); st.Discards != 1 || sink.sum != nil {
		t.Fatalf("stats = %+v, summary = %v; want 1 discard and nothing stored", st, sink.sum)
	}
}

func TestCalibrator(t *testing.T) {
	cal := newCalibrator()
	if f := cal.factor("ep", "p"); f != 1 {
		t.Fatalf("unseen factor = %v, want 1", f)
	}
	// A single underestimate raises the factor but less than the full
	// ratio (EWMA gain < 1).
	cal.observe([]string{"ep"}, []string{"p"}, 10, 1000)
	f := cal.factor("ep", "p")
	if f <= 1 || f >= 1000.0/10 {
		t.Fatalf("factor after one observation = %v, want in (1, 100)", f)
	}
	// Repeated identical observations converge toward the ratio, capped
	// at the clamp.
	for i := 0; i < 100; i++ {
		cal.observe([]string{"ep"}, []string{"p"}, 10, 1000)
	}
	if f := cal.factor("ep", "p"); f > 32.001 {
		t.Fatalf("factor %v exceeds clamp 32", f)
	}
	// Symmetric overestimates walk it back down.
	for i := 0; i < 200; i++ {
		cal.observe([]string{"ep"}, []string{"p"}, 1000, 10)
	}
	if f := cal.factor("ep", "p"); f >= 1 {
		t.Fatalf("factor %v did not cross 1 after overestimates", f)
	}
	// Degenerate inputs are no-ops on the factors.
	cal.observe(nil, []string{"p"}, 10, 1000)
	cal.observe([]string{"ep"}, nil, 10, 1000)
	cal.observe([]string{"ep"}, []string{"q"}, -1, 5)
	if f := cal.factor("ep", "q"); f != 1 {
		t.Fatalf("degenerate observations moved factor to %v", f)
	}
	keys, obs := cal.stats()
	if keys != 1 || obs == 0 {
		t.Fatalf("stats = (%d, %d)", keys, obs)
	}
}

func TestNilServiceIsSafe(t *testing.T) {
	var s *Service
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Observe(nil, nil, 0, 0)
	if f := s.Factor("x", "y"); f != 1 {
		t.Fatal("nil factor != 1")
	}
	if st := s.Stats(); st != (ServiceStats{}) {
		t.Fatal("nil stats non-zero")
	}
}
