package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/testfed"
)

// assertMatchesUnion runs the query through Lusail and through the
// union-graph oracle and compares canonical results.
func assertMatchesUnion(t *testing.T, l *Lusail, locals []*endpoint.Local, query string) (*sparql.Results, Metrics) {
	t.Helper()
	got, m, _, err := l.ExecuteStreamTraced(context.Background(), query, nil)
	if err != nil {
		t.Fatalf("lusail execute: %v", err)
	}
	union := engine.New(testfed.UnionStore(locals...))
	want, err := union.Eval(sparql.MustParse(query))
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	cg, cw := testfed.Canon(got), testfed.Canon(want)
	if !reflect.DeepEqual(cg, cw) {
		t.Errorf("lusail result differs from union-graph oracle.\nquery: %s\n got: %v\nwant: %v", query, cg, cw)
	}
	return got, m
}

func newUniLusail(cfg Config) (*Lusail, []*endpoint.Local) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	return New(eps, cfg), []*endpoint.Local{ep1, ep2}
}

func TestLusailQa(t *testing.T) {
	l, locals := newUniLusail(Config{})
	res, m := assertMatchesUnion(t, l, locals, testfed.Qa)
	if res.Len() != 2 {
		t.Errorf("Qa rows = %d, want 2", res.Len())
	}
	if m.Subqueries != 4 {
		t.Errorf("subqueries = %d, want 4 (Fig. 7 D2)", m.Subqueries)
	}
	if m.GJVs < 2 {
		t.Errorf("GJVs = %d, want >= 2 (?P and ?U)", m.GJVs)
	}
	if m.CheckQueries == 0 {
		t.Error("expected check queries on cold cache")
	}
}

func TestLusailQaChainTraversesInterlink(t *testing.T) {
	l, locals := newUniLusail(Config{})
	res, _ := assertMatchesUnion(t, l, locals, testfed.QaChain)
	// The interlinked Tim->MIT->"XXX" answer must be present: it is
	// exactly the row a concatenation-only strategy misses.
	foundTim := false
	for _, r := range res.Rows {
		if r["P"] == testfed.IRI("Tim") && r["A"] == rdf.Literal("XXX") {
			foundTim = true
		}
	}
	if !foundTim {
		t.Error("missing the cross-endpoint Tim/MIT answer")
	}
}

func TestLusailDisjointQuery(t *testing.T) {
	// No GJVs: one subquery broadcast to both endpoints, results
	// concatenated (the paper's LUBM Q1/Q2 case).
	l, locals := newUniLusail(Config{})
	q := `SELECT ?s ?p ?c WHERE {
		?s <http://ex/advisor> ?p .
		?s <http://ex/takesCourse> ?c .
	}`
	res, m := assertMatchesUnion(t, l, locals, q)
	if res.Len() != 4 {
		t.Errorf("rows = %d, want 4", res.Len())
	}
	if m.Subqueries != 1 {
		t.Errorf("subqueries = %d, want 1 (disjoint)", m.Subqueries)
	}
	if m.Phase1Requests != 2 {
		t.Errorf("phase-1 requests = %d, want 2 (one per endpoint)", m.Phase1Requests)
	}
	if m.Phase2Requests != 0 {
		t.Errorf("phase-2 requests = %d, want 0", m.Phase2Requests)
	}
}

func TestLusailWithFilter(t *testing.T) {
	l, locals := newUniLusail(Config{})
	assertMatchesUnion(t, l, locals, `SELECT ?S ?A WHERE {
		?S <http://ex/advisor> ?P .
		?P <http://ex/PhDDegreeFrom> ?U .
		?U <http://ex/address> ?A .
		FILTER (?A = "XXX")
	}`)
}

func TestLusailWithOptional(t *testing.T) {
	l, locals := newUniLusail(Config{})
	assertMatchesUnion(t, l, locals, `SELECT ?S ?P ?C WHERE {
		?S <http://ex/advisor> ?P .
		OPTIONAL { ?P <http://ex/teacherOf> ?C }
	}`)
}

func TestLusailOptionalAcrossEndpoints(t *testing.T) {
	// The optional part requires the interlink: ?U address ?A lives at
	// EP1 for Tim's MIT.
	l, locals := newUniLusail(Config{})
	assertMatchesUnion(t, l, locals, `SELECT ?P ?U ?A WHERE {
		?P <http://ex/PhDDegreeFrom> ?U .
		OPTIONAL { ?U <http://ex/address> ?A }
	}`)
}

func TestLusailUnboundFilterOnOptionalVar(t *testing.T) {
	l, locals := newUniLusail(Config{})
	assertMatchesUnion(t, l, locals, `SELECT ?P WHERE {
		?S <http://ex/advisor> ?P .
		OPTIONAL { ?P <http://ex/teacherOf> ?C }
		FILTER (!BOUND(?C))
	}`)
}

func TestLusailWithUnion(t *testing.T) {
	l, locals := newUniLusail(Config{})
	assertMatchesUnion(t, l, locals, `SELECT ?x ?y WHERE {
		{ ?x <http://ex/teacherOf> ?y } UNION { ?x <http://ex/PhDDegreeFrom> ?y }
	}`)
}

func TestLusailUnionJoinedWithPattern(t *testing.T) {
	l, locals := newUniLusail(Config{})
	assertMatchesUnion(t, l, locals, `SELECT ?S ?P ?x WHERE {
		?S <http://ex/advisor> ?P .
		{ ?P <http://ex/teacherOf> ?x } UNION { ?P <http://ex/PhDDegreeFrom> ?x }
	}`)
}

// partialUnionFed holds ?x p0 ?w beside a UNION whose second
// alternative binds ?w too: one endpoint has x p0 w and x p1 z, the
// other x p2 w. The UNION's rows bind {x, z} and {x, w}, so ?w is a
// shared variable that only some rows bind.
func partialUnionFed() (*Lusail, []*endpoint.Local) {
	st1, st2 := store.New(), store.New()
	st1.Add(rdf.T(testfed.IRI("x"), testfed.IRI("p0"), testfed.IRI("w")))
	st1.Add(rdf.T(testfed.IRI("x"), testfed.IRI("p1"), testfed.IRI("z")))
	st2.Add(rdf.T(testfed.IRI("x"), testfed.IRI("p2"), testfed.IRI("w")))
	locals := []*endpoint.Local{endpoint.NewLocal("ep0", st1), endpoint.NewLocal("ep1", st2)}
	return New([]endpoint.Endpoint{locals[0], locals[1]}, Config{}), locals
}

// TestJoinKeySkipsPartiallyBoundUnionVar: the UNION row that leaves ?w
// unbound must still join ?x p0 ?w on ?x. A key over the header's
// shared variables ({x, w}) would match it against nothing and return
// 1 of the oracle's 2 rows.
func TestJoinKeySkipsPartiallyBoundUnionVar(t *testing.T) {
	l, locals := partialUnionFed()
	got, _ := assertMatchesUnion(t, l, locals, `SELECT * WHERE {
		?x <http://ex/p0> ?w .
		{ ?x <http://ex/p1> ?z } UNION { ?x <http://ex/p2> ?w }
	}`)
	if len(got.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(got.Rows))
	}
}

// TestLeftJoinKeySkipsPartiallyBoundUnionVar: OPTIONAL { ?x p0 ?w }
// onto the same UNION must bind ?w in the row the first alternative
// produced, which is compatible with it on ?x alone.
func TestLeftJoinKeySkipsPartiallyBoundUnionVar(t *testing.T) {
	l, locals := partialUnionFed()
	got, _ := assertMatchesUnion(t, l, locals, `SELECT * WHERE {
		{ ?x <http://ex/p1> ?z } UNION { ?x <http://ex/p2> ?w }
		OPTIONAL { ?x <http://ex/p0> ?w }
	}`)
	for _, row := range got.Rows {
		if _, ok := row["w"]; !ok {
			t.Errorf("row %v leaves ?w unbound", row)
		}
	}
}

func TestLusailWithValues(t *testing.T) {
	l, locals := newUniLusail(Config{})
	assertMatchesUnion(t, l, locals, `SELECT ?P ?U WHERE {
		VALUES ?P { <http://ex/Tim> <http://ex/Ben> <http://ex/Nobody> }
		?P <http://ex/PhDDegreeFrom> ?U .
	}`)
}

func TestLusailModifiers(t *testing.T) {
	l, locals := newUniLusail(Config{})
	res, _ := assertMatchesUnion(t, l, locals, `SELECT DISTINCT ?U WHERE {
		?P <http://ex/PhDDegreeFrom> ?U .
	} ORDER BY ?U`)
	if res.Len() != 2 || res.Rows[0]["U"] != testfed.IRI("CMU") {
		t.Errorf("ordered distinct rows = %v", res.Rows)
	}
	res2, err := l.Execute(context.Background(), `SELECT ?U WHERE { ?P <http://ex/PhDDegreeFrom> ?U } LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 1 {
		t.Errorf("limit rows = %d", res2.Len())
	}
}

func TestLusailCount(t *testing.T) {
	l, _ := newUniLusail(Config{})
	res, err := l.Execute(context.Background(), `SELECT (COUNT(*) AS ?c) WHERE { ?S <http://ex/advisor> ?P }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0]["c"] != rdf.Integer(4) {
		t.Errorf("count = %v, want 4", res.Rows[0]["c"])
	}
}

func TestLusailAsk(t *testing.T) {
	l, _ := newUniLusail(Config{})
	res, err := l.Execute(context.Background(), `ASK { ?P <http://ex/PhDDegreeFrom> <http://ex/MIT> }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AskForm || !res.Ask {
		t.Errorf("ask = %+v", res)
	}
	res, err = l.Execute(context.Background(), `ASK { ?P <http://ex/PhDDegreeFrom> <http://ex/Nowhere> }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ask {
		t.Error("ask should be false")
	}
}

func TestLusailEmptySourcePattern(t *testing.T) {
	l, _ := newUniLusail(Config{})
	res, err := l.Execute(context.Background(), `SELECT * WHERE {
		?s <http://ex/advisor> ?p .
		?s <http://ex/absentPredicate> ?x .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("rows = %d, want 0", res.Len())
	}
}

func TestLusailDelayPolicies(t *testing.T) {
	for _, pol := range []DelayPolicy{DelayMu, DelayMuSigma, DelayMu2Sigma, DelayOutliersOnly, DelayNone, DelayAll} {
		t.Run(pol.String(), func(t *testing.T) {
			l, locals := newUniLusail(Config{DelayPolicy: pol})
			assertMatchesUnion(t, l, locals, testfed.Qa)
		})
	}
}

func TestLusailAblationAssumeAllGlobal(t *testing.T) {
	l, locals := newUniLusail(Config{AssumeAllGlobal: true})
	_, m := assertMatchesUnion(t, l, locals, testfed.Qa)
	if m.Subqueries != 5 {
		t.Errorf("ablation subqueries = %d, want 5 (one per pattern)", m.Subqueries)
	}
	if m.CheckQueries != 0 {
		t.Error("ablation must send no check queries")
	}
}

func TestLusailCacheReducesRequests(t *testing.T) {
	l, locals := newUniLusail(Config{})
	ctx := context.Background()
	_, cold, _, err := l.ExecuteStreamTraced(ctx, testfed.Qa, nil)
	if err != nil {
		t.Fatal(err)
	}
	endpoint.ResetAll([]endpoint.Endpoint{locals[0], locals[1]})
	_, warm, _, err := l.ExecuteStreamTraced(ctx, testfed.Qa, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.AskRequests != 0 || warm.CheckQueries != 0 || warm.CountQueries != 0 {
		t.Errorf("warm run still probing: %+v", warm)
	}
	if cold.RemoteRequests() <= warm.RemoteRequests() {
		t.Errorf("cache did not reduce requests: cold=%d warm=%d",
			cold.RemoteRequests(), warm.RemoteRequests())
	}
}

func TestLusailBindBlockSize(t *testing.T) {
	// Small blocks force multiple bound requests; results unchanged.
	l, locals := newUniLusail(Config{DelayPolicy: DelayAll})
	l.executor.bindBlockSize = 1
	if _, m := assertMatchesUnion(t, l, locals, testfed.QaChain); m.BoundBlocks == 0 {
		t.Error("expected bound VALUES blocks with DelayAll")
	}
}

func TestLusailRejectsUnsupported(t *testing.T) {
	l, _ := newUniLusail(Config{})
	// FILTER EXISTS spanning subqueries.
	_, err := l.Execute(context.Background(), `SELECT ?S WHERE {
		?S <http://ex/advisor> ?P .
		?P <http://ex/PhDDegreeFrom> ?U .
		?U <http://ex/address> ?A .
		FILTER NOT EXISTS { ?S <http://ex/takesCourse> ?A }
	}`)
	if err == nil {
		t.Error("cross-subquery EXISTS should be rejected")
	}
	if _, err := l.Execute(context.Background(), "garbage"); err == nil {
		t.Error("bad query accepted")
	}
}

// buildRandomFederation creates n endpoints with overlapping schemas
// and cross-endpoint interlinks, the adversarial setting for
// locality-aware decomposition.
func buildRandomFederation(r *rand.Rand, n int) []*endpoint.Local {
	preds := []rdf.Term{
		testfed.IRI("p0"), testfed.IRI("p1"), testfed.IRI("p2"), testfed.IRI("p3"),
	}
	// Each endpoint owns entities e<ep>_<i>; some objects point at
	// other endpoints' entities (interlinks).
	eps := make([]*endpoint.Local, n)
	for e := 0; e < n; e++ {
		st := store.New()
		for i := 0; i < 12+r.Intn(20); i++ {
			s := testfed.IRI(fmt.Sprintf("e%d_%d", e, r.Intn(8)))
			p := preds[r.Intn(len(preds))]
			var o rdf.Term
			switch r.Intn(4) {
			case 0: // interlink
				o = testfed.IRI(fmt.Sprintf("e%d_%d", r.Intn(n), r.Intn(8)))
			case 1: // literal
				o = rdf.Literal(fmt.Sprintf("v%d", r.Intn(5)))
			default: // local entity
				o = testfed.IRI(fmt.Sprintf("e%d_%d", e, r.Intn(8)))
			}
			st.Add(rdf.T(s, p, o))
		}
		eps[e] = endpoint.NewLocal(fmt.Sprintf("ep%d", e), st)
	}
	return eps
}

// randomBGPQuery builds a connected conjunctive query of 2-4 patterns.
func randomBGPQuery(r *rand.Rand) string {
	vars := []string{"a", "b", "c", "d", "e"}
	n := 2 + r.Intn(3)
	q := "SELECT * WHERE {\n"
	for i := 0; i < n; i++ {
		// Chain/star mix: subject var from the previous pattern's
		// variables to keep the query connected.
		sv := vars[r.Intn(i+1)]
		ov := vars[i+1]
		q += fmt.Sprintf("?%s <http://ex/p%d> ?%s .\n", sv, r.Intn(4), ov)
	}
	q += "}"
	return q
}

// TestQuickLusailMatchesOracle is the central correctness property:
// over randomized federations with interlinks and randomized
// conjunctive queries, Lusail's answer equals the union-graph oracle,
// under every delay policy and with decomposition ablation.
func TestQuickLusailMatchesOracle(t *testing.T) {
	policies := []DelayPolicy{DelayMuSigma, DelayNone, DelayAll}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		locals := buildRandomFederation(r, 2+r.Intn(3))
		eps := make([]endpoint.Endpoint, len(locals))
		for i, l := range locals {
			eps[i] = l
		}
		query := randomBGPQuery(r)
		oracle := engine.New(testfed.UnionStore(locals...))
		want, err := oracle.Eval(sparql.MustParse(query))
		if err != nil {
			t.Logf("seed %d oracle error: %v", seed, err)
			return false
		}
		cw := testfed.Canon(want)
		for _, pol := range policies {
			l := New(eps, Config{DelayPolicy: pol})
			l.executor.bindBlockSize = 3
			got, err := l.Execute(context.Background(), query)
			if err != nil {
				t.Logf("seed %d policy %s error: %v\nquery: %s", seed, pol, err, query)
				return false
			}
			if cg := testfed.Canon(got); !reflect.DeepEqual(cg, cw) {
				t.Logf("seed %d policy %s mismatch\nquery: %s\n got %v\nwant %v",
					seed, pol, query, cg, cw)
				return false
			}
		}
		// Ablation mode and the literal Algorithm 2 decomposer must
		// also stay correct.
		for name, l := range map[string]*Lusail{
			"all-global": New(eps, Config{AssumeAllGlobal: true}),
			"traversal":  withTraversal(New(eps, Config{})),
		} {
			got, err := l.Execute(context.Background(), query)
			if err != nil {
				t.Logf("seed %d %s error: %v", seed, name, err)
				return false
			}
			if cg := testfed.Canon(got); !reflect.DeepEqual(cg, cw) {
				t.Logf("seed %d %s mismatch\nquery: %s", seed, name, query)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickFullFragmentSmallBlocksMatchesOracle runs randomized
// full-fragment queries (OPTIONAL, UNION, FILTER, DISTINCT) with every
// subquery delayed and 3-row VALUES blocks, so bound evaluation spans
// several blocks, and compares them with the union-graph oracle.
func TestQuickFullFragmentSmallBlocksMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		locals := testfed.RandomFederation(r)
		eps := make([]endpoint.Endpoint, len(locals))
		for i, l := range locals {
			eps[i] = l
		}
		query := testfed.RandomFullQuery(r)
		want, err := engine.New(testfed.UnionStore(locals...)).Eval(sparql.MustParse(query))
		if err != nil {
			t.Logf("seed %d oracle error: %v", seed, err)
			return false
		}
		l := New(eps, Config{DelayPolicy: DelayAll})
		l.executor.bindBlockSize = 3
		got, err := l.Execute(context.Background(), query)
		if err != nil {
			t.Logf("seed %d error: %v\nquery: %s", seed, err, query)
			return false
		}
		if cg, cw := testfed.Canon(got), testfed.Canon(want); !reflect.DeepEqual(cg, cw) {
			t.Logf("seed %d mismatch (%d vs %d rows)\nquery: %s", seed, len(cg), len(cw), query)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLusailNestedOptionalStructures(t *testing.T) {
	// OPTIONAL groups containing UNION / VALUES / nested OPTIONAL are
	// evaluated recursively as federated subplans.
	l, locals := newUniLusail(Config{})
	assertMatchesUnion(t, l, locals, `SELECT ?P ?x WHERE {
		?S <http://ex/advisor> ?P .
		OPTIONAL {
			{ ?P <http://ex/teacherOf> ?x } UNION { ?P <http://ex/PhDDegreeFrom> ?x }
		}
	}`)
	assertMatchesUnion(t, l, locals, `SELECT ?P ?U ?A WHERE {
		?S <http://ex/advisor> ?P .
		OPTIONAL {
			?P <http://ex/PhDDegreeFrom> ?U .
			OPTIONAL { ?U <http://ex/address> ?A }
		}
	}`)
	assertMatchesUnion(t, l, locals, `SELECT ?P ?U WHERE {
		?S <http://ex/advisor> ?P .
		OPTIONAL {
			VALUES ?U { <http://ex/MIT> <http://ex/CMU> }
			?P <http://ex/PhDDegreeFrom> ?U .
		}
	}`)
}

func TestLusailNestedOptionalResidualFilter(t *testing.T) {
	// A filter in the nested OPTIONAL referencing an outer variable
	// must be evaluated at the left join, not inside the recursion.
	l, locals := newUniLusail(Config{})
	assertMatchesUnion(t, l, locals, `SELECT ?S ?P ?x WHERE {
		?S <http://ex/advisor> ?P .
		OPTIONAL {
			{ ?P <http://ex/teacherOf> ?x } UNION { ?P <http://ex/PhDDegreeFrom> ?x }
			FILTER (?S != <http://ex/Sam>)
		}
	}`)
}
