package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"lusail/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.IRI("http://ex/" + s) }

func sampleStore() *Store {
	st := New()
	st.Add(rdf.T(iri("s1"), iri("p1"), iri("o1")))
	st.Add(rdf.T(iri("s1"), iri("p1"), iri("o2")))
	st.Add(rdf.T(iri("s1"), iri("p2"), iri("o1")))
	st.Add(rdf.T(iri("s2"), iri("p1"), iri("o1")))
	st.Add(rdf.T(iri("s2"), iri("p2"), rdf.Literal("v")))
	return st
}

func TestAddDeduplicates(t *testing.T) {
	st := New()
	tr := rdf.T(iri("s"), iri("p"), iri("o"))
	st.Add(tr)
	st.Add(tr)
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
	if !st.Contains(tr) {
		t.Error("Contains false for inserted triple")
	}
	if st.Contains(rdf.T(iri("s"), iri("p"), iri("other"))) {
		t.Error("Contains true for absent triple")
	}
	if st.Contains(rdf.T(iri("unknown"), iri("p"), iri("o"))) {
		t.Error("Contains true for unknown term")
	}
}

func TestMatchAllAccessPaths(t *testing.T) {
	st := sampleStore()
	var zero rdf.Term
	cases := []struct {
		name    string
		s, p, o rdf.Term
		want    int
	}{
		{"spo bound hit", iri("s1"), iri("p1"), iri("o1"), 1},
		{"spo bound miss", iri("s1"), iri("p1"), rdf.Literal("v"), 0},
		{"s??", iri("s1"), zero, zero, 3},
		{"?p?", zero, iri("p1"), zero, 3},
		{"??o", zero, zero, iri("o1"), 3},
		{"sp?", iri("s1"), iri("p1"), zero, 2},
		{"?po", zero, iri("p1"), iri("o1"), 2},
		{"s?o", iri("s1"), zero, iri("o1"), 2},
		{"???", zero, zero, zero, 5},
		{"unknown term", iri("nope"), zero, zero, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := st.Match(c.s, c.p, c.o)
			if len(got) != c.want {
				t.Errorf("Match returned %d triples, want %d: %v", len(got), c.want, got)
			}
			if n := st.CountMatch(c.s, c.p, c.o); n != c.want {
				t.Errorf("CountMatch = %d, want %d", n, c.want)
			}
			if est := st.EstimateMatch(c.s, c.p, c.o); est < c.want {
				t.Errorf("EstimateMatch = %d underestimates %d", est, c.want)
			}
		})
	}
}

func TestForEachMatchEarlyStop(t *testing.T) {
	st := sampleStore()
	n := 0
	st.ForEachMatch(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(rdf.Triple) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d, want 2", n)
	}
}

func TestPredicates(t *testing.T) {
	st := sampleStore()
	got := st.Predicates()
	want := []rdf.Term{iri("p1"), iri("p2")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Predicates = %v, want %v", got, want)
	}
}

func TestPredicateStats(t *testing.T) {
	st := sampleStore()
	ps := st.PredicateStats(iri("p1"))
	if ps == nil {
		t.Fatal("nil stats for existing predicate")
	}
	if ps.Triples != 3 || ps.DistinctSubjects != 2 || ps.DistinctObjects != 2 {
		t.Errorf("stats = %+v", ps)
	}
	if st.PredicateStats(iri("missing")) != nil {
		t.Error("stats for missing predicate should be nil")
	}
	all := st.AllPredicateStats()
	if len(all) != 2 {
		t.Fatalf("AllPredicateStats len = %d", len(all))
	}
	// Stats must be invalidated by writes.
	st.Add(rdf.T(iri("s9"), iri("p1"), iri("o9")))
	if got := st.PredicateStats(iri("p1")).Triples; got != 4 {
		t.Errorf("stats stale after write: %d", got)
	}
}

func TestAuthorities(t *testing.T) {
	st := New()
	st.Add(rdf.T(rdf.IRI("http://dbpedia.org/r/A"), iri("p"), rdf.IRI("http://geonames.org/1")))
	st.Add(rdf.T(rdf.IRI("http://dbpedia.org/r/B"), iri("p"), rdf.Literal("lit")))
	subj := st.Authorities(iri("p"), false)
	if _, ok := subj["http://dbpedia.org"]; !ok || len(subj) != 1 {
		t.Errorf("subject authorities = %v", subj)
	}
	obj := st.Authorities(iri("p"), true)
	if _, ok := obj["http://geonames.org"]; !ok || len(obj) != 1 {
		t.Errorf("object authorities = %v (literals must be excluded)", obj)
	}
	if got := st.Authorities(iri("absent"), false); len(got) != 0 {
		t.Errorf("authorities of absent predicate = %v", got)
	}
}

func TestTriplesCopy(t *testing.T) {
	st := sampleStore()
	g := st.Triples()
	if len(g) != st.Len() {
		t.Fatalf("Triples len = %d, want %d", len(g), st.Len())
	}
	sort.Slice(g, func(i, j int) bool { return g[i].Compare(g[j]) < 0 })
	if !st.Contains(g[0]) {
		t.Error("exported triple not in store")
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	st := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.Add(rdf.T(iri(fmt.Sprintf("s%d-%d", w, i)), iri("p"), iri("o")))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.CountMatch(rdf.Term{}, iri("p"), rdf.Term{})
				st.PredicateStats(iri("p"))
			}
		}()
	}
	wg.Wait()
	if st.Len() != 800 {
		t.Errorf("Len = %d, want 800", st.Len())
	}
}

// TestQuickMatchAgainstNaive property-tests every access path against
// a naive scan over the same random graph.
func TestQuickMatchAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		terms := make([]rdf.Term, 8)
		for i := range terms {
			terms[i] = iri(fmt.Sprintf("t%d", i))
		}
		pick := func() rdf.Term { return terms[r.Intn(len(terms))] }
		var g rdf.Graph
		for i := 0; i < 60; i++ {
			g = append(g, rdf.T(pick(), pick(), pick()))
		}
		st := FromGraph(g)
		// Dedup the naive reference.
		uniq := map[rdf.Triple]struct{}{}
		for _, tr := range g {
			uniq[tr] = struct{}{}
		}
		wild := func() rdf.Term {
			if r.Intn(2) == 0 {
				return rdf.Term{}
			}
			return pick()
		}
		for trial := 0; trial < 20; trial++ {
			s, p, o := wild(), wild(), wild()
			want := 0
			for tr := range uniq {
				if (s.IsZero() || tr.S == s) && (p.IsZero() || tr.P == p) && (o.IsZero() || tr.O == o) {
					want++
				}
			}
			if got := len(st.Match(s, p, o)); got != want {
				t.Logf("seed %d: Match(%v,%v,%v) = %d, want %d", seed, s, p, o, got, want)
				return false
			}
			if got := st.CountMatch(s, p, o); got != want {
				t.Logf("seed %d: CountMatch(%v,%v,%v) = %d, want %d", seed, s, p, o, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRemoveEdgeCases(t *testing.T) {
	st := sampleStore()
	var zero rdf.Term
	n := st.Len()
	present := rdf.T(iri("s1"), iri("p1"), iri("o1"))

	// Removing an absent triple (all terms known but combination never
	// added, or a term the store has never seen) is a no-op.
	if st.Remove(rdf.T(iri("s2"), iri("p1"), iri("o2"))) {
		t.Error("removed a never-added combination of known terms")
	}
	if st.Remove(rdf.T(iri("ghost"), iri("p1"), iri("o1"))) {
		t.Error("removed a triple with an unknown subject")
	}
	if st.Len() != n {
		t.Fatalf("no-op removes changed Len: %d -> %d", n, st.Len())
	}

	if !st.Remove(present) {
		t.Fatal("failed to remove a present triple")
	}
	if st.Contains(present) || st.Len() != n-1 {
		t.Fatalf("triple still visible after remove: contains=%v len=%d", st.Contains(present), st.Len())
	}
	// Double remove reports absence.
	if st.Remove(present) {
		t.Error("second remove of the same triple reported success")
	}
	// Every access path agrees the triple is gone.
	if c := st.CountMatch(present.S, present.P, present.O); c != 0 {
		t.Errorf("CountMatch on removed triple = %d", c)
	}
	if got := st.Match(iri("s1"), iri("p1"), zero); len(got) != 1 {
		t.Errorf("s1/p1 rows after remove = %d, want 1", len(got))
	}

	// Re-adding after removal fully restores visibility.
	st.Add(present)
	if !st.Contains(present) || st.Len() != n {
		t.Fatalf("re-add after remove: contains=%v len=%d want %d", st.Contains(present), st.Len(), n)
	}
	if c := st.CountMatch(present.S, present.P, zero); c != 2 {
		t.Errorf("CountMatch after re-add = %d, want 2", c)
	}
}

func TestApplyRemovesPresentOnly(t *testing.T) {
	st := sampleStore()
	n := st.Len()
	g := rdf.Graph{
		rdf.T(iri("s1"), iri("p1"), iri("o1")),
		rdf.T(iri("s1"), iri("p1"), iri("o1")), // duplicate: counted once
		rdf.T(iri("nope"), iri("p1"), iri("o1")),
		rdf.T(iri("s2"), iri("p2"), rdf.Literal("v")),
	}
	st.Apply(nil, g)
	if st.Len() != n-2 {
		t.Errorf("Len after Apply = %d, want %d (one duplicate, one absent)", st.Len(), n-2)
	}
	// Remove runs before insert: a triple in both ends up present.
	both := rdf.Graph{rdf.T(iri("s1"), iri("p1"), iri("o1"))}
	st.Apply(both, both)
	if !st.Contains(both[0]) {
		t.Error("triple in both insert and remove is absent after Apply")
	}
}

// Removing a predicate's last triple must retire the predicate from
// Predicates() and its stats, and removal must invalidate the cached
// statistics that planners consume.
func TestRemoveRetiresPredicate(t *testing.T) {
	st := sampleStore()
	var zero rdf.Term
	if st.CountMatch(zero, iri("p2"), zero) != 2 {
		t.Fatal("fixture changed")
	}
	st.Remove(rdf.T(iri("s1"), iri("p2"), iri("o1")))
	st.Remove(rdf.T(iri("s2"), iri("p2"), rdf.Literal("v")))
	for _, p := range st.Predicates() {
		if p == iri("p2") {
			t.Error("extinct predicate still listed")
		}
	}
	if ps := st.PredicateStats(iri("p2")); ps != nil && ps.Triples != 0 {
		t.Errorf("extinct predicate stats = %+v", ps)
	}
	if c := st.EstimateMatch(zero, iri("p2"), zero); c != 0 {
		t.Errorf("EstimateMatch on extinct predicate = %d", c)
	}
}
