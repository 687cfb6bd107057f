package lubm

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"lusail/internal/baseline/fedx"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/testfed"
)

func endpoints(t *testing.T, n int) ([]endpoint.Endpoint, []*endpoint.Local) {
	t.Helper()
	graphs := Generate(DefaultConfig(n))
	eps := make([]endpoint.Endpoint, n)
	locals := make([]*endpoint.Local, n)
	for i, g := range graphs {
		l := endpoint.NewLocal(fmt.Sprintf("univ%d", i), store.FromGraph(g))
		eps[i], locals[i] = l, l
	}
	return eps, locals
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(2))
	b := Generate(DefaultConfig(2))
	if !reflect.DeepEqual(a, b) {
		t.Error("generation is not deterministic")
	}
	c := Generate(Config{Universities: 2, Scale: 1, Seed: 99, RemoteDegreeProb: 0.3})
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should differ")
	}
}

func TestGenerateShape(t *testing.T) {
	graphs := Generate(DefaultConfig(3))
	if len(graphs) != 3 {
		t.Fatalf("graphs = %d", len(graphs))
	}
	for u, g := range graphs {
		st := store.FromGraph(g)
		if st.Len() < 300 {
			t.Errorf("university %d has only %d triples", u, st.Len())
		}
		// Own university typed and named.
		if !st.Contains(rdf.T(UniversityIRI(u), rdf.IRI(rdf.RDFType), ClassUniversity)) {
			t.Errorf("university %d missing its type triple", u)
		}
		if len(st.Match(UniversityIRI(u), PredName, rdf.Term{})) != 1 {
			t.Errorf("university %d missing its name", u)
		}
	}
}

func TestInterlinksExist(t *testing.T) {
	graphs := Generate(DefaultConfig(4))
	remote := 0
	for u, g := range graphs {
		for _, tr := range g {
			if tr.P == PredDoctoralFrom || tr.P == PredMastersFrom {
				if tr.O != UniversityIRI(u) {
					remote++
				}
			}
			if tr.P == PredUndergradFrom && tr.O != UniversityIRI(u) {
				t.Errorf("undergraduate degree must stay local: %v at univ %d", tr, u)
			}
		}
	}
	if remote == 0 {
		t.Error("no cross-university degree interlinks generated")
	}
}

func TestReferencedUniversitiesTyped(t *testing.T) {
	// Remote degree targets must be locally declared with rdf:type so
	// that LUBM-style check queries can narrow instance sets.
	graphs := Generate(DefaultConfig(4))
	for u, g := range graphs {
		st := store.FromGraph(g)
		for _, tr := range g {
			if tr.P == PredDoctoralFrom || tr.P == PredMastersFrom {
				if !st.Contains(rdf.T(tr.O, rdf.IRI(rdf.RDFType), ClassUniversity)) {
					t.Fatalf("univ %d references %v without a local type declaration", u, tr.O)
				}
			}
		}
	}
}

func TestEveryCourseTaughtAndTaken(t *testing.T) {
	g := Generate(DefaultConfig(1))[0]
	st := store.FromGraph(g)
	for _, tr := range st.Match(rdf.Term{}, rdf.IRI(rdf.RDFType), ClassCourse) {
		if len(st.Match(rdf.Term{}, PredTeacherOf, tr.S)) == 0 {
			t.Errorf("course %v has no teacher", tr.S)
		}
		if len(st.Match(rdf.Term{}, PredTakesCourse, tr.S)) == 0 {
			t.Errorf("course %v has no students", tr.S)
		}
	}
}

func TestQueriesParse(t *testing.T) {
	for name, q := range Queries {
		if _, err := sparql.Parse(q); err != nil {
			t.Errorf("%s does not parse: %v", name, err)
		}
	}
}

func TestQ1Q2AreDisjointForLusail(t *testing.T) {
	eps, _ := endpoints(t, 2)
	for _, name := range []string{"Q1", "Q2"} {
		l := core.New(eps, core.Config{})
		_, m, _, err := l.ExecuteStreamTraced(context.Background(), Queries[name], nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Subqueries != 1 {
			t.Errorf("%s subqueries = %d, want 1 (disjoint per the paper)", name, m.Subqueries)
		}
	}
}

func TestQ3DecomposesIntoTwoSubqueries(t *testing.T) {
	eps, _ := endpoints(t, 4)
	l := core.New(eps, core.Config{})
	res, m, _, err := l.ExecuteStreamTraced(context.Background(), Q3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Error("Q3 should return University0's graduate students")
	}
	if m.Subqueries != 2 {
		t.Errorf("Q3 subqueries = %d, want 2 (paper §VI-C)", m.Subqueries)
	}
	if m.Delayed != 1 {
		t.Errorf("Q3 delayed = %d, want 1 (the generic type subquery)", m.Delayed)
	}
}

func TestQ4UsesInterlink(t *testing.T) {
	eps, locals := endpoints(t, 3)
	l := core.New(eps, core.Config{})
	got, m, _, err := l.ExecuteStreamTraced(context.Background(), Q4, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(testfed.UnionStore(locals...)).Eval(sparql.MustParse(Q4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(testfed.Canon(got), testfed.Canon(want)) {
		t.Error("Q4 result differs from union-graph oracle")
	}
	// Some advisor's doctoral university must be remote, i.e. its name
	// resolves on another endpoint; verify at least one such row.
	if m.GJVs == 0 {
		t.Error("Q4 should detect ?u as a global join variable")
	}
}

func TestAllQueriesMatchOracleOnBothEngines(t *testing.T) {
	eps, locals := endpoints(t, 2)
	oracle := engine.New(testfed.UnionStore(locals...))
	for name, q := range Queries {
		want, err := oracle.Eval(sparql.MustParse(q))
		if err != nil {
			t.Fatalf("%s oracle: %v", name, err)
		}
		cw := testfed.Canon(want)
		l := core.New(eps, core.Config{})
		got, err := l.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%s lusail: %v", name, err)
		}
		if !reflect.DeepEqual(testfed.Canon(got), cw) {
			t.Errorf("%s: lusail differs from oracle", name)
		}
		f := fedx.New(eps, fedx.Config{})
		got, err = f.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%s fedx: %v", name, err)
		}
		if !reflect.DeepEqual(testfed.Canon(got), cw) {
			t.Errorf("%s: fedx differs from oracle", name)
		}
	}
}

func TestScaleGrowsData(t *testing.T) {
	small := Generate(Config{Universities: 1, Scale: 1, Seed: 1})[0]
	big := Generate(Config{Universities: 1, Scale: 3, Seed: 1})[0]
	if len(big) < 2*len(small) {
		t.Errorf("scale 3 (%d triples) should be much larger than scale 1 (%d)", len(big), len(small))
	}
}
