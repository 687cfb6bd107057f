package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/testfed"
	"lusail/internal/trace"
)

func TestFoundBindingsIntersect(t *testing.T) {
	fb := newFoundBindings()
	fb.update(relOf([]sparql.Var{"x"},
		b("x", "1"), b("x", "2"), b("x", "3")))
	if !fb.covered("x") || fb.covered("y") {
		t.Error("covered wrong")
	}
	if got := len(fb.valuesFor("x")); got != 3 {
		t.Fatalf("values = %d", got)
	}
	// A second relation narrows the candidate set.
	fb.update(relOf([]sparql.Var{"x", "y"},
		b("x", "2", "y", "a"), b("x", "3", "y", "b"), b("x", "9", "y", "c")))
	vals := fb.valuesFor("x")
	if len(vals) != 2 {
		t.Fatalf("intersected values = %v", vals)
	}
	if vals[0] != rdf.IRI("http://ex/2") || vals[1] != rdf.IRI("http://ex/3") {
		t.Errorf("values = %v", vals)
	}
}

func TestFoundBindingsSkipsPartiallyBoundVars(t *testing.T) {
	fb := newFoundBindings()
	fb.update(relOf([]sparql.Var{"x"}, b("x", "1"), b("x", "2")))
	// A UNION relation where some rows leave x unbound must not
	// constrain x.
	fb.update(&Relation{
		Vars: []sparql.Var{"x", "y"},
		Rows: []sparql.Binding{b("y", "only")},
	})
	if got := len(fb.valuesFor("x")); got != 2 {
		t.Errorf("values after partial relation = %d, want 2 (unchanged)", got)
	}
}

func TestFoundBindingsValuesDeterministic(t *testing.T) {
	fb := newFoundBindings()
	fb.update(relOf([]sparql.Var{"x"}, b("x", "c"), b("x", "a"), b("x", "b")))
	v1 := fb.valuesFor("x")
	v2 := fb.valuesFor("x")
	if !reflect.DeepEqual(v1, v2) {
		t.Error("valuesFor not deterministic")
	}
	if v1[0].Compare(v1[1]) >= 0 {
		t.Error("valuesFor not sorted")
	}
}

func TestRefinedCard(t *testing.T) {
	sq := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?x <http://ex/p> ?y }`).Where.Patterns,
		EstCard:  1000,
	}
	fb := newFoundBindings()
	if got := refinedCard(sq, fb); got != 1000 {
		t.Errorf("unrefined card = %v", got)
	}
	fb.update(relOf([]sparql.Var{"x"}, b("x", "1"), b("x", "2")))
	if got := refinedCard(sq, fb); got != 2 {
		t.Errorf("refined card = %v, want 2", got)
	}
}

func TestPickMostSelective(t *testing.T) {
	ex := NewExecutor(nil)
	fb := newFoundBindings()
	sqs := []*Subquery{
		{EstCard: 500, Patterns: sparql.MustParse(`SELECT * WHERE { ?a <http://ex/p> ?b }`).Where.Patterns},
		{EstCard: 100, Patterns: sparql.MustParse(`SELECT * WHERE { ?c <http://ex/q> ?d }`).Where.Patterns},
		{EstCard: 300, Patterns: sparql.MustParse(`SELECT * WHERE { ?e <http://ex/r> ?f }`).Where.Patterns},
	}
	if got := ex.pickMostSelective(sqs, fb); got != 1 {
		t.Errorf("pick = %d, want 1", got)
	}
	// Bindings can make another subquery the most selective.
	fb.update(relOf([]sparql.Var{"a"}, b("a", "1")))
	if got := ex.pickMostSelective(sqs, fb); got != 0 {
		t.Errorf("pick with bindings = %d, want 0", got)
	}
}

func TestExecutorSingleSubqueryConcatenates(t *testing.T) {
	// The disjoint case (Algorithm 3 lines 2-4): one subquery, results
	// concatenated across endpoints, no join.
	eps := uniEndpoints()
	ex := NewExecutor(eps)
	q := sparql.MustParse(`SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p }`)
	sq := &Subquery{
		Patterns: q.Where.Patterns, Sources: []int{0, 1},
		ProjVars: []sparql.Var{"p", "s"}, OptionalGroup: -1,
	}
	rel, stats, err := runPlan(t, context.Background(), ex, &Plan{Subqueries: []*Subquery{sq}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 4 {
		t.Errorf("rows = %d, want 4 (2 per endpoint)", len(rel.Rows))
	}
	if stats.Phase1Requests != 2 || stats.Phase2Requests != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestExecutorDelayedBoundExecution(t *testing.T) {
	eps := uniEndpoints()
	ex := NewExecutor(eps)
	ex.bindBlockSize = 2
	qa := sparql.MustParse(testfed.QaChain)
	sq1 := &Subquery{ // advisor+takesCourse: selective seed
		Patterns: qa.Where.Patterns[0:2], Sources: []int{0, 1},
		ProjVars: []sparql.Var{"P", "S"}, OptionalGroup: -1, EstCard: 4,
	}
	sq2 := &Subquery{ // PhDDegreeFrom: delayed, bound on ?P
		Patterns: qa.Where.Patterns[2:3], Sources: []int{0, 1},
		ProjVars: []sparql.Var{"P", "U"}, OptionalGroup: -1, EstCard: 100, Delayed: true,
	}
	rel, stats, err := runPlan(t, context.Background(), ex, &Plan{Subqueries: []*Subquery{sq1, sq2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BoundBlocks == 0 {
		t.Error("expected VALUES blocks for the delayed subquery")
	}
	if stats.Phase2Requests == 0 {
		t.Error("expected phase-2 requests")
	}
	// Joined result: every advisor pair with a degree.
	if len(rel.Rows) == 0 {
		t.Error("empty join result")
	}
	for _, row := range rel.Rows {
		if _, ok := row["U"]; !ok {
			t.Errorf("row missing joined var: %v", row)
		}
	}
}

func TestExecutorEmptyRequiredShortCircuits(t *testing.T) {
	eps := uniEndpoints()
	ex := NewExecutor(eps)
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://ex/advisor> ?p . ?s <http://ex/nothing> ?x }`)
	sq1 := &Subquery{Patterns: q.Where.Patterns[0:1], Sources: []int{0, 1}, ProjVars: []sparql.Var{"p", "s"}, OptionalGroup: -1}
	sq2 := &Subquery{Patterns: q.Where.Patterns[1:2], Sources: nil, ProjVars: []sparql.Var{"s", "x"}, OptionalGroup: -1, Delayed: true}
	rel, _, err := runPlan(t, context.Background(), ex, &Plan{Subqueries: []*Subquery{sq1, sq2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 0 {
		t.Errorf("rows = %d, want 0", len(rel.Rows))
	}
}

func TestExecutorOptionalLeftJoin(t *testing.T) {
	eps := uniEndpoints()
	ex := NewExecutor(eps)
	req := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?s <http://ex/advisor> ?P }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"P", "s"}, OptionalGroup: -1,
	}
	opt := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?P <http://ex/teacherOf> ?c }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"P", "c"},
		Optional: true, OptionalGroup: 0, Delayed: true,
	}
	rel, _, err := runPlan(t, context.Background(), ex, &Plan{Subqueries: []*Subquery{req, opt}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 advisor rows; Tim and Ann teach nothing, so their rows lack ?c.
	if len(rel.Rows) != 4 {
		t.Fatalf("rows = %d, want 4: %v", len(rel.Rows), rel.Rows)
	}
	unbound := 0
	for _, row := range rel.Rows {
		if _, ok := row["c"]; !ok {
			unbound++
		}
	}
	if unbound != 2 {
		t.Errorf("unbound optional rows = %d, want 2", unbound)
	}
}

// captureEndpoint records every query shipped to it.
type captureEndpoint struct {
	inner   endpoint.Endpoint
	mu      sync.Mutex
	queries []string
}

func (c *captureEndpoint) Name() string { return c.inner.Name() }

func (c *captureEndpoint) Query(ctx context.Context, q string) (*sparql.Results, error) {
	c.mu.Lock()
	c.queries = append(c.queries, q)
	c.mu.Unlock()
	return c.inner.Query(ctx, q)
}

func (c *captureEndpoint) captured() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.queries...)
}

// Regression for VALUES-block aliasing: with bindBlockSize=1 and more
// than two candidate values, runBound builds one query per block. Each
// shipped query must carry exactly its own single VALUES block — a
// shared Where pointer under append would leak blocks across queries.
func TestRunBoundOneValuesBlockPerShippedQuery(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	cap1, cap2 := &captureEndpoint{inner: ep1}, &captureEndpoint{inner: ep2}
	ex := NewExecutor([]endpoint.Endpoint{cap1, cap2})
	ex.bindBlockSize = 1

	sq := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?P <http://ex/PhDDegreeFrom> ?U }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"P", "U"},
		OptionalGroup: -1, Delayed: true, EstCard: 100,
	}
	fb := newFoundBindings()
	fb.update(relOf([]sparql.Var{"P"},
		b("P", "Tim"), b("P", "Ann"), b("P", "Joe"), b("P", "Sue")))

	var m Metrics
	if _, err := ex.runBound(context.Background(), sq, fb, nil, &m); err != nil {
		t.Fatal(err)
	}
	if m.BoundBlocks != 4 {
		t.Errorf("bound blocks = %d, want 4 (one per candidate)", m.BoundBlocks)
	}
	shipped := append(cap1.captured(), cap2.captured()...)
	if len(shipped) != 8 {
		t.Fatalf("shipped queries = %d, want 8 (4 blocks x 2 endpoints)", len(shipped))
	}
	for _, q := range shipped {
		if n := strings.Count(q, "VALUES"); n != 1 {
			t.Errorf("shipped query carries %d VALUES blocks, want exactly 1:\n%s", n, q)
		}
	}
}

// valuesGauge tracks how many VALUES blocks are in flight at once at
// one endpoint, holding each for a while so the window fills.
type valuesGauge struct {
	endpoint.Endpoint
	inFlight, maxSeen atomic.Int32
}

func (g *valuesGauge) Query(ctx context.Context, q string) (*sparql.Results, error) {
	if !strings.Contains(q, "VALUES") {
		return g.Endpoint.Query(ctx, q)
	}
	n := g.inFlight.Add(1)
	defer g.inFlight.Add(-1)
	for m := g.maxSeen.Load(); n > m && !g.maxSeen.CompareAndSwap(m, n); m = g.maxSeen.Load() {
	}
	time.Sleep(20 * time.Millisecond)
	return g.Endpoint.Query(ctx, q)
}

// TestBoundBlocksFillTheEndpointWindow: a delayed subquery's VALUES
// blocks to one source go out as one batch, so the source has the
// handler's window of 4 blocks in flight; one request per block, and
// the answer equals the union-graph oracle's.
func TestBoundBlocksFillTheEndpointWindow(t *testing.T) {
	var locals []*endpoint.Local
	var gauges []*valuesGauge
	eps := chainFederation(200, func(ep endpoint.Endpoint) endpoint.Endpoint {
		locals = append(locals, ep.(*endpoint.Local))
		g := &valuesGauge{Endpoint: ep}
		gauges = append(gauges, g)
		return g
	})
	l := New(eps, Config{DelayPolicy: DelayAll})
	l.executor.bindBlockSize = 20
	res, m, _, err := l.ExecuteStreamTraced(context.Background(), chainQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.BoundBlocks < 9 {
		t.Fatalf("bound blocks = %d, want >= 9 to fill the window twice", m.BoundBlocks)
	}
	if m.Phase2Requests != m.BoundBlocks {
		t.Errorf("phase-2 requests = %d, want one per block (%d)", m.Phase2Requests, m.BoundBlocks)
	}
	maxSeen := max(gauges[0].maxSeen.Load(), gauges[1].maxSeen.Load())
	if maxSeen != 4 {
		t.Errorf("max VALUES blocks in flight at the source = %d, want the window 4", maxSeen)
	}
	if got, want := testfed.Canon(res), testfed.Canon(oracle(t, locals, chainQuery)); !reflect.DeepEqual(got, want) {
		t.Errorf("windowed phase 2 = %d rows, oracle %d rows", len(got), len(want))
	}
}

// genericDelayed is a delayed subquery whose variable predicate makes
// every source relevant.
func genericDelayed(sources ...int) *Subquery {
	return &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`).Where.Patterns,
		Sources:  sources, ProjVars: []sparql.Var{"o", "p", "s"},
		OptionalGroup: -1, Delayed: true, EstCard: 100,
	}
}

// Candidates that match at no endpoint still go out as VALUES blocks to
// every source — nothing prunes a source before phase 2 — and come back
// as an empty relation with sane partitioning.
func TestRunBoundCandidatesMatchingNowhere(t *testing.T) {
	ex := NewExecutor(uniEndpoints())
	ex.bindBlockSize = 2
	fb := newFoundBindings()
	fb.update(relOf([]sparql.Var{"s"}, b("s", "ghost1"), b("s", "ghost2"), b("s", "ghost3")))

	var m Metrics
	rel, err := ex.runBound(context.Background(), genericDelayed(0, 1), fb, nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 0 {
		t.Errorf("rows = %d, want 0", len(rel.Rows))
	}
	if rel.Partitions != 2 {
		t.Errorf("partitions = %d, want 2", rel.Partitions)
	}
	if m.BoundBlocks != 2 || m.Phase2Requests != 2*m.BoundBlocks {
		t.Errorf("blocks/phase-2 requests = %d/%d, want 2 blocks to each of 2 sources",
			m.BoundBlocks, m.Phase2Requests)
	}
}

// A source that matches only a candidate late in the sorted order keeps
// its rows. Sampled source refinement once asked each source about the
// first 50 candidates only and dropped the second endpoint here, whose
// one match is v55 of 60.
func TestRunBoundKeepsSourceMatchingLateCandidate(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.IRI("http://ex/" + s) }
	stA, stB := store.New(), store.New()
	stA.Add(rdf.T(iri("v00"), iri("p"), iri("a")))
	stB.Add(rdf.T(iri("v55"), iri("p"), iri("b")))
	locals := []*endpoint.Local{endpoint.NewLocal("A", stA), endpoint.NewLocal("B", stB)}
	ex := NewExecutor([]endpoint.Endpoint{locals[0], locals[1]})
	fb := newFoundBindings()
	var cands []sparql.Binding
	for i := 0; i < 60; i++ {
		cands = append(cands, b("s", fmt.Sprintf("v%02d", i)))
	}
	fb.update(relOf([]sparql.Var{"s"}, cands...))

	sq := genericDelayed(0, 1)
	var m Metrics
	rel, err := ex.runBound(context.Background(), sq, fb, nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	got := testfed.Canon(&sparql.Results{Vars: rel.Vars, Rows: rel.Rows})
	want := testfed.Canon(oracle(t, locals, boundQuery(sq, "s", fb.valuesFor("s"))))
	if len(want) != 2 || !reflect.DeepEqual(got, want) {
		t.Errorf("runBound = %v, union graph = %v (want its 2 rows)", got, want)
	}
}

func TestExecutorEmptyPlanYieldsIdentity(t *testing.T) {
	ex := NewExecutor(nil)
	rel, _, err := runPlan(t, context.Background(), ex, &Plan{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 1 || len(rel.Rows[0]) != 0 {
		t.Errorf("identity relation = %v", rel.Rows)
	}
}

// delayOn delays the queries containing substr, so a test can choose
// which phase-1 relation lands last.
type delayOn struct {
	endpoint.Endpoint
	substr string
	d      time.Duration
}

func (e delayOn) Query(ctx context.Context, q string) (*sparql.Results, error) {
	if strings.Contains(q, e.substr) {
		time.Sleep(e.d)
	}
	return e.Endpoint.Query(ctx, q)
}

// TestJoinOrderIndependentOfLandingOrder: relations land in arrival
// order, but the join-order search (which breaks cost ties by input
// position) must see them in plan order, or the same query folds its
// relations differently — possibly through a cross product — from one
// run to the next.
func TestJoinOrderIndependentOfLandingOrder(t *testing.T) {
	mk := func(id int, text string, proj []sparql.Var, delayed bool) *Subquery {
		return &Subquery{
			ID: id, Patterns: sparql.MustParse(text).Where.Patterns, Sources: []int{0, 1},
			ProjVars: proj, OptionalGroup: -1, EstCard: 4, Delayed: delayed,
		}
	}
	joins := func(slow string) []string {
		eps := uniEndpoints()
		for i, ep := range eps {
			eps[i] = delayOn{Endpoint: ep, substr: slow, d: 10 * time.Millisecond}
		}
		// The delayed subquery shares a variable with each of the others,
		// so nothing streams: all four relations go through the fold.
		p := &Plan{Subqueries: []*Subquery{
			mk(0, `SELECT * WHERE { ?s <http://ex/advisor> ?p }`, []sparql.Var{"s", "p"}, false),
			mk(1, `SELECT * WHERE { ?p <http://ex/PhDDegreeFrom> ?u }`, []sparql.Var{"p", "u"}, false),
			mk(2, `SELECT * WHERE { ?s <http://ex/takesCourse> ?c }`, []sparql.Var{"s", "c"}, false),
			mk(3, `SELECT * WHERE { ?p <http://ex/teacherOf> ?c . ?u <http://ex/address> ?a }`, []sparql.Var{"p", "c", "u", "a"}, true),
		}}
		tr := trace.New("q")
		if _, _, err := runPlan(t, trace.WithSpan(context.Background(), tr.Root), NewExecutor(eps), p, nil); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, js := range tr.Root.FindAll("hash-join") {
			out = append(out, fmt.Sprintf("%d⋈%d→%d", js.Int("left_rows"), js.Int("right_rows"), js.Int("out_rows")))
		}
		return out
	}
	want := joins("advisor")
	for _, slow := range []string{"PhDDegreeFrom", "takesCourse"} {
		if got := joins(slow); !reflect.DeepEqual(got, want) {
			t.Errorf("with %s landing last the fold is %v; with advisor last it is %v", slow, got, want)
		}
	}
}
