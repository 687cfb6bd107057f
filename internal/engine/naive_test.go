package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// naiveBGP evaluates a basic graph pattern by brute force: each
// pattern matched against the full triple list, solutions merged by
// compatibility. It is the oracle for the optimized join.
func naiveBGP(g rdf.Graph, patterns []sparql.TriplePattern) []sparql.Binding {
	rows := []sparql.Binding{{}}
	for _, tp := range patterns {
		var next []sparql.Binding
		for _, row := range rows {
			for _, tr := range dedup(g) {
				nb := matchTriple(row, tp, tr)
				if nb != nil {
					next = append(next, nb)
				}
			}
		}
		rows = next
	}
	return rows
}

func dedup(g rdf.Graph) rdf.Graph {
	seen := map[rdf.Triple]struct{}{}
	var out rdf.Graph
	for _, t := range g {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

func matchTriple(row sparql.Binding, tp sparql.TriplePattern, tr rdf.Triple) sparql.Binding {
	nb := row.Clone()
	try := func(el sparql.Elem, val rdf.Term) bool {
		if !el.IsVar() {
			return el.Term == val
		}
		if prev, ok := nb[el.Var]; ok {
			return prev == val
		}
		nb[el.Var] = val
		return true
	}
	if try(tp.S, tr.S) && try(tp.P, tr.P) && try(tp.O, tr.O) {
		return nb
	}
	return nil
}

func canonical(rows []sparql.Binding, vars []sparql.Var) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, r.Key(vars))
	}
	sort.Strings(out)
	return out
}

// TestQuickBGPAgainstNaive property-tests the optimized BGP join
// against the brute-force oracle on random graphs and random BGPs.
func TestQuickBGPAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		subjects := []rdf.Term{iri("a"), iri("b"), iri("c"), iri("d")}
		preds := []rdf.Term{iri("p"), iri("q"), iri("r")}
		objects := append([]rdf.Term{rdf.Literal("x"), rdf.Integer(1)}, subjects...)

		var g rdf.Graph
		for i := 0; i < 5+r.Intn(40); i++ {
			g = append(g, rdf.T(
				subjects[r.Intn(len(subjects))],
				preds[r.Intn(len(preds))],
				objects[r.Intn(len(objects))],
			))
		}
		vars := []sparql.Var{"v0", "v1", "v2", "v3"}
		elem := func(pool []rdf.Term) sparql.Elem {
			if r.Intn(2) == 0 {
				return sparql.V(string(vars[r.Intn(len(vars))]))
			}
			return sparql.C(pool[r.Intn(len(pool))])
		}
		var patterns []sparql.TriplePattern
		for i := 0; i < 1+r.Intn(3); i++ {
			patterns = append(patterns, sparql.TriplePattern{
				S: elem(subjects), P: elem(preds), O: elem(objects),
			})
		}

		want := naiveBGP(g, patterns)
		var got []sparql.Binding
		var err error
		store.FromGraph(g).Read(func(v store.View) {
			got, err = evaluation{v}.joinBGP([]sparql.Binding{{}}, patterns, nil, 0)
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		allVars := map[sparql.Var]bool{}
		for _, tp := range patterns {
			for _, v := range tp.Vars() {
				allVars[v] = true
			}
		}
		var vlist []sparql.Var
		for _, v := range vars {
			if allVars[v] {
				vlist = append(vlist, v)
			}
		}
		cw, cg := canonical(want, vlist), canonical(got, vlist)
		if len(cw) != len(cg) {
			t.Logf("seed %d: got %d rows, want %d\npatterns: %v", seed, len(cg), len(cw), patterns)
			return false
		}
		for i := range cw {
			if cw[i] != cg[i] {
				t.Logf("seed %d: row %d differs\n got %q\nwant %q", seed, i, cg[i], cw[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickFilterPushdownEquivalence checks that evaluating a BGP with
// filters inline equals filtering afterwards.
func TestQuickFilterPushdownEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var g rdf.Graph
		for i := 0; i < 30; i++ {
			g = append(g, rdf.T(
				iri(fmt.Sprintf("s%d", r.Intn(6))),
				iri("val"),
				rdf.Integer(int64(r.Intn(20))),
			))
		}
		e := New(store.FromGraph(g))
		thresh := r.Intn(20)
		q := sparql.MustParse(fmt.Sprintf(
			`SELECT ?s ?v WHERE { ?s <http://ex/val> ?v . FILTER (?v >= %d) }`, thresh))
		res, err := e.Eval(q)
		if err != nil {
			return false
		}
		// Oracle: evaluate without filter, then filter manually.
		q2 := sparql.MustParse(`SELECT ?s ?v WHERE { ?s <http://ex/val> ?v }`)
		res2, err := e.Eval(q2)
		if err != nil {
			return false
		}
		var kept []sparql.Binding
		for _, row := range res2.Rows {
			var n int
			fmt.Sscanf(row["v"].Value, "%d", &n)
			if n >= thresh {
				kept = append(kept, row)
			}
		}
		vlist := []sparql.Var{"s", "v"}
		a, b := canonical(res.Rows, vlist), canonical(kept, vlist)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
