package core

import (
	"context"
	"errors"
	"reflect"
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

// storeRel retains rel under key the way a completed computation over
// srcs does, whatever else is in flight for the key.
func storeRel(c *SubqueryCache, key string, srcs []string, rel *Relation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeLocked(key, snapshotRelation(rel), c.stampOf(srcs))
}

// keyEPs builds named in-process endpoints for key-construction tests.
func keyEPs(names ...string) []endpoint.Endpoint {
	eps := make([]endpoint.Endpoint, len(names))
	for i, n := range names {
		eps[i] = endpoint.NewLocal(n, store.New())
	}
	return eps
}

func TestSubqueryCacheSingleFlight(t *testing.T) {
	c := NewSubqueryCache(nil, 0, 0)
	sq := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?s <http://ex/p> ?o }`).Where.Patterns,
		Sources:  []int{1, 0},
		ProjVars: []sparql.Var{"o", "s"},
	}
	key, srcs := SubqueryKey(sq, keyEPs("a", "b"))
	computes := 0
	rel := relOf([]sparql.Var{"s", "o"}, b("s", "1", "o", "2"))
	compute := func() (*Relation, error) { computes++; return rel, nil }
	got, shared, err := c.Do(context.Background(), key, srcs, false, true, compute)
	if err != nil || len(got.Rows) != 1 || shared {
		t.Fatalf("first Do = %v shared=%v err=%v", got, shared, err)
	}
	got, shared, err = c.Do(context.Background(), key, srcs, false, true, compute)
	if err != nil || !shared {
		t.Fatalf("second Do = %v shared=%v err=%v", got, shared, err)
	}
	if got == rel {
		t.Error("cache hit returned the stored relation itself, want a private copy")
	}
	if len(got.Rows) != 1 || !reflect.DeepEqual(got.Rows[0], rel.Rows[0]) {
		t.Errorf("hit rows = %v, want %v", got.Rows, rel.Rows)
	}
	if computes != 1 {
		t.Errorf("computes = %d, want 1", computes)
	}
	if c.Hits() != 1 || c.Len() != 1 {
		t.Errorf("hits = %d len = %d", c.Hits(), c.Len())
	}
}

func TestSubqueryCacheErrorNotCached(t *testing.T) {
	c := NewSubqueryCache(nil, 0, 0)
	calls := 0
	fail := func() (*Relation, error) { calls++; return nil, context.Canceled }
	if _, _, err := c.Do(context.Background(), "k", nil, false, true, fail); err == nil {
		t.Fatal("error swallowed")
	}
	if _, _, err := c.Do(context.Background(), "k", nil, false, true, fail); err == nil {
		t.Fatal("error swallowed on retry")
	}
	if calls != 2 {
		t.Errorf("failed computation cached: calls = %d", calls)
	}
	if c.Hits() != 0 {
		t.Errorf("hits = %d, want 0 (errors are not reuse)", c.Hits())
	}
}

// Regression (unstable keys): the key must be derived from stable
// endpoint identities, not from positional indexes — index 0 of one
// federation is a different endpoint than index 0 of another.
func TestSubqueryKeyStableEndpointIdentity(t *testing.T) {
	patterns := sparql.MustParse(`SELECT * WHERE { ?s <http://ex/p> ?o }`).Where.Patterns
	keyOf := func(sq *Subquery, eps []endpoint.Endpoint) string {
		key, _ := SubqueryKey(sq, eps)
		return key
	}

	// Same subquery over the same two endpoints, listed in opposite
	// orders by two federations: one cache key.
	a := &Subquery{Patterns: patterns, Sources: []int{0, 1}, ProjVars: []sparql.Var{"s"}}
	rev := &Subquery{Patterns: patterns, Sources: []int{1, 0}, ProjVars: []sparql.Var{"s"}}
	if keyOf(a, keyEPs("x", "y")) != keyOf(rev, keyEPs("y", "x")) {
		t.Error("same endpoints in different federation orders must share a key")
	}

	// Distinct endpoints at the same indexes must NOT collide, even
	// though their positional source lists are identical.
	b1 := &Subquery{Patterns: patterns, Sources: []int{0}, ProjVars: []sparql.Var{"s"}}
	if keyOf(b1, keyEPs("x", "y")) == keyOf(b1, keyEPs("z", "y")) {
		t.Error("different endpoints with identical source indexes must not collide")
	}

	// Different source sets over one federation stay distinct.
	one := &Subquery{Patterns: patterns, Sources: []int{0}, ProjVars: []sparql.Var{"s"}}
	two := &Subquery{Patterns: patterns, Sources: []int{0, 1}, ProjVars: []sparql.Var{"s"}}
	if keyOf(one, keyEPs("x", "y")) == keyOf(two, keyEPs("x", "y")) {
		t.Error("different source sets must not share cache keys")
	}
}

// Regression (shared-relation aliasing): every hit must return a
// relation whose slices are private to the caller, so concurrent
// consumers can sort and truncate without racing (run with -race).
func TestSubqueryCacheCopyOnRead(t *testing.T) {
	c := NewSubqueryCache(nil, 0, 0)
	rel := relOf([]sparql.Var{"s"}, b("s", "1"), b("s", "2"), b("s", "3"))
	if _, _, err := c.Do(context.Background(), "k", nil, false, true, func() (*Relation, error) { return rel, nil }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, _, err := c.Do(context.Background(), "k", nil, false, true, func() (*Relation, error) {
				t.Error("unexpected recompute")
				return rel, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			// Downstream join/dedup paths reorder and truncate in place.
			for i, j := 0, len(got.Rows)-1; i < j; i, j = i+1, j-1 {
				got.Rows[i], got.Rows[j] = got.Rows[j], got.Rows[i]
			}
			got.Rows = got.Rows[:1+g%2]
			got.Vars = append(got.Vars, sparql.Var("extra"))
		}(g)
	}
	wg.Wait()
	got, _, err := c.Do(context.Background(), "k", nil, false, true, func() (*Relation, error) { return rel, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 3 || len(got.Vars) != 1 {
		t.Errorf("cached entry corrupted by consumers: %d rows %v", len(got.Rows), got.Vars)
	}
	if !reflect.DeepEqual(got.Rows[0], b("s", "1")) {
		t.Errorf("cached row order corrupted: %v", got.Rows)
	}
}

// Regression (completeness leakage): a partial relation computed under
// an absorbing policy must never be served to a caller that cannot
// absorb it, and a complete recomputation replaces the partial entry.
func TestSubqueryCachePartialEntryGating(t *testing.T) {
	c := NewSubqueryCache(nil, 0, 0)
	partial := relOf([]sparql.Var{"s"}, b("s", "1"))
	partial.Dropped = []sparql.Dropped{{Endpoint: "down", Phase: "phase1", Reason: "unreachable"}}
	complete := relOf([]sparql.Var{"s"}, b("s", "1"), b("s", "2"))

	// An absorbing caller computes and stores the partial result.
	if _, _, err := c.Do(context.Background(), "k", nil, true, true, func() (*Relation, error) { return partial, nil }); err != nil {
		t.Fatal(err)
	}
	// Another absorbing caller reuses it, drop records intact.
	got, shared, err := c.Do(context.Background(), "k", nil, true, true, func() (*Relation, error) {
		t.Fatal("absorbing caller must reuse the partial entry")
		return nil, nil
	})
	if err != nil || !shared {
		t.Fatalf("absorbing hit: shared=%v err=%v", shared, err)
	}
	if len(got.Dropped) != 1 {
		t.Errorf("partial hit lost its drop records: %v", got.Dropped)
	}

	// A strict caller must NOT see the partial entry: it recomputes.
	computes := 0
	got, shared, err = c.Do(context.Background(), "k", nil, false, true, func() (*Relation, error) {
		computes++
		return complete, nil
	})
	if err != nil || shared || computes != 1 {
		t.Fatalf("strict caller served a partial entry: shared=%v computes=%d err=%v", shared, computes, err)
	}
	if len(got.Dropped) != 0 || len(got.Rows) != 2 {
		t.Errorf("strict recompute returned %v", got)
	}

	// The complete recomputation replaced the partial entry: strict
	// callers now hit.
	_, shared, err = c.Do(context.Background(), "k", nil, false, true, func() (*Relation, error) {
		t.Fatal("complete entry must be reused")
		return nil, nil
	})
	if err != nil || !shared {
		t.Fatalf("strict hit after replacement: shared=%v err=%v", shared, err)
	}
}

// Regression (stale errors for waiters): a caller blocked on a
// computation that failed must re-enter the compute loop instead of
// surfacing the leader's error, and error deliveries must not count as
// hits.
func TestSubqueryCacheWaiterRetriesAfterFailure(t *testing.T) {
	c := NewSubqueryCache(nil, 0, 0)
	joined := make(chan struct{})
	var joinOnce sync.Once
	c.onWait = func(string) { joinOnce.Do(func() { close(joined) }) }
	leaderStarted := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", nil, false, true, func() (*Relation, error) {
			close(leaderStarted)
			<-release
			return nil, errors.New("endpoint down")
		})
		leaderDone <- err
	}()
	<-leaderStarted

	waiterDone := make(chan error, 1)
	recomputed := 0
	go func() {
		_, _, err := c.Do(context.Background(), "k", nil, false, true, func() (*Relation, error) {
			recomputed++
			return relOf([]sparql.Var{"s"}, b("s", "1")), nil
		})
		waiterDone <- err
	}()
	// Deterministic join: the cache's onWait hook fires once the waiter
	// has found the in-flight call; only then does the leader fail.
	<-joined
	close(release)

	if err := <-leaderDone; err == nil {
		t.Error("leader must surface its own error")
	}
	if err := <-waiterDone; err != nil {
		t.Errorf("waiter surfaced the leader's stale error: %v", err)
	}
	if recomputed != 1 {
		t.Errorf("waiter recomputed %d times, want 1", recomputed)
	}
	if c.Hits() != 0 {
		t.Errorf("hits = %d, want 0 (an error delivery is not reuse)", c.Hits())
	}
}

func TestSubqueryCacheTTLExpiry(t *testing.T) {
	c := NewSubqueryCache(nil, 0, time.Minute)
	now := time.Unix(0, 0)
	c.now = func() time.Time { return now }
	storeRel(c, "k", nil, relOf([]sparql.Var{"s"}, b("s", "1")))

	if _, ok := cached(c, context.Background(), "k"); !ok {
		t.Fatal("fresh entry must hit")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := cached(c, context.Background(), "k"); ok {
		t.Fatal("expired entry served")
	}
	st := c.Stats()
	if st.Expirations != 1 || st.Entries != 0 {
		t.Errorf("stats after expiry = %+v", st)
	}
}

func TestSubqueryCacheLRUBound(t *testing.T) {
	c := NewSubqueryCache(nil, 2, 0)
	rel := relOf([]sparql.Var{"s"}, b("s", "1"))
	storeRel(c, "a", nil, rel)
	storeRel(c, "b", nil, rel)
	// Touch "a" so "b" is the least recently used.
	if _, ok := cached(c, context.Background(), "a"); !ok {
		t.Fatal("lookup a")
	}
	storeRel(c, "c", nil, rel)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := cached(c, context.Background(), "b"); ok {
		t.Error("LRU entry b survived past the bound")
	}
	if _, ok := cached(c, context.Background(), "a"); !ok {
		t.Error("recently-used entry a evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestSubqueryCacheInvalidateEndpoint(t *testing.T) {
	eps := keyEPs("a", "b", "c")
	l := New(eps, Config{SubqueryCacheSize: 64})
	c := l.sqCache
	patterns := sparql.MustParse(`SELECT * WHERE { ?s <http://ex/p> ?o }`).Where.Patterns
	ab, abSrcs := SubqueryKey(&Subquery{Patterns: patterns, Sources: []int{0, 1}}, eps)
	cOnly, cSrcs := SubqueryKey(&Subquery{Patterns: patterns, Sources: []int{2}}, eps)
	rel := relOf([]sparql.Var{"s"}, b("s", "1"))
	storeRel(c, ab, abSrcs, rel)
	storeRel(c, cOnly, cSrcs, rel)

	l.InvalidateEndpointCaches("a")
	if _, ok := cached(c, context.Background(), ab); ok {
		t.Error("entry sourced from invalidated endpoint survived")
	}
	if _, ok := cached(c, context.Background(), cOnly); !ok {
		t.Error("entry not sourced from invalidated endpoint dropped")
	}
}

// TestSubqueryCacheFencesInFlightStores is TestKnowledgeFencesInFlightStores
// for subquery results: an invalidation between compute start and
// completion refuses the store exactly when it reached one of the
// computation's sources — churn on another endpoint refuses nothing.
func TestSubqueryCacheFencesInFlightStores(t *testing.T) {
	for _, tc := range []struct {
		name       string
		invalidate func(l *Lusail)
		stored     bool
	}{
		{"invalidate-self", func(l *Lusail) { l.InvalidateEndpointCaches("a") }, false},
		{"invalidate-other", func(l *Lusail) { l.InvalidateEndpointCaches("b") }, true},
		{"clear", func(l *Lusail) { l.InvalidateCaches() }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := New(keyEPs("a", "b"), Config{SubqueryCacheSize: 64})
			c := l.sqCache
			started := make(chan struct{})
			release := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				_, _, _ = c.Do(context.Background(), "k", []string{"a"}, false, true, func() (*Relation, error) {
					close(started)
					<-release
					return relOf([]sparql.Var{"s"}, b("s", "1")), nil
				})
			}()
			<-started
			tc.invalidate(l)
			close(release)
			<-done
			if stored := c.Len() == 1; stored != tc.stored {
				t.Errorf("stored = %v, want %v", stored, tc.stored)
			}
		})
	}
}

// TestSubqueryCacheWaiterSkipsCallBeganBeforeInvalidation: a caller that
// finds a computation in flight joins it only while the computation's
// sources are uninvalidated. One that began before an invalidation may
// have read data that is gone, and its store is refused; a query whose
// own fence refresh just invalidated the endpoint must compute afresh,
// not be handed the old rows as a hit.
func TestSubqueryCacheWaiterSkipsCallBeganBeforeInvalidation(t *testing.T) {
	l := New(keyEPs("a"), Config{SubqueryCacheSize: 64})
	c := l.sqCache
	started := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	// Were the second caller to wait, the leader must still finish.
	c.onWait = func(string) { releaseOnce.Do(func() { close(release) }) }
	var computes atomic.Int32
	compute := func() (*Relation, error) {
		computes.Add(1)
		return relOf([]sparql.Var{"s"}, b("s", "1")), nil
	}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = c.Do(context.Background(), "k", []string{"a"}, false, true, func() (*Relation, error) {
			close(started)
			<-release
			return compute()
		})
	}()
	<-started
	l.InvalidateEndpointCaches("a")
	if _, shared, err := c.Do(context.Background(), "k", []string{"a"}, false, true, compute); err != nil || shared {
		t.Errorf("second caller: shared = %v, err = %v; want its own computation", shared, err)
	}
	releaseOnce.Do(func() { close(release) })
	<-leaderDone
	if n := computes.Load(); n != 2 || c.Hits() != 0 {
		t.Errorf("computes = %d, hits = %d; want 2 and 0", n, c.Hits())
	}
	// The fresh computation is the one retained.
	if c.Len() != 1 {
		t.Errorf("entries = %d, want the fresh computation's 1", c.Len())
	}
}

func TestPersistentCacheCrossQueryReuse(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	l := New(eps, Config{SubqueryCacheSize: 64})

	res1, m1, _, err := l.ExecuteStreamTraced(context.Background(), testfed.QaChain, nil)
	if err != nil {
		t.Fatal(err)
	}
	endpoint.ResetAll(eps)

	res2, m2, _, err := l.ExecuteStreamTraced(context.Background(), testfed.QaChain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(testfed.Canon(res1), testfed.Canon(res2)) {
		t.Error("cached repeat returned different results")
	}
	// Planning caches persist: the repeat sends no ASK/check/COUNT.
	if m2.AskRequests != 0 || m2.CheckQueries != 0 || m2.CountQueries != 0 {
		t.Errorf("repeat plan-time requests = %d/%d/%d, want 0/0/0",
			m2.AskRequests, m2.CheckQueries, m2.CountQueries)
	}
	// Phase-1 subqueries come from the cross-query cache.
	if m2.Phase1Requests != 0 {
		t.Errorf("repeat Phase1Requests = %d, want 0 (served from cache)", m2.Phase1Requests)
	}
	if m1.Phase1Requests == 0 {
		t.Error("first run sent no phase-1 requests — test fixture broken")
	}
	if hits := subqueryCacheHits(l); hits == 0 {
		t.Error("no subquery cache hits on repeat execution")
	}

	// InvalidateCaches drops the reuse: the next run re-executes.
	l.InvalidateCaches()
	_, m3, _, err := l.ExecuteStreamTraced(context.Background(), testfed.QaChain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Phase1Requests == 0 {
		t.Error("invalidated cache still served phase-1 results")
	}
}

// TestDisableCacheLeavesSubqueryCacheAlone: DisableCache turns off plan
// knowledge and nothing else. It used to clear every cache at every
// query start — wiping the subquery-result cache its doc never
// mentioned, bypassing the coherence fence, and bumping generations
// under concurrent queries' in-flight stores.
func TestDisableCacheLeavesSubqueryCacheAlone(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	l := New(eps, Config{DisableCache: true, SubqueryCacheSize: 64})

	res1, m1, _, err := l.ExecuteStreamTraced(context.Background(), testfed.QaChain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Phase1Requests == 0 {
		t.Fatal("first run sent no phase-1 requests — test fixture broken")
	}
	res2, m2, _, err := l.ExecuteStreamTraced(context.Background(), testfed.QaChain, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No plan fact was kept: the repeat probes again, as much as before.
	if m2.AskRequests != m1.AskRequests || m2.CheckQueries != m1.CheckQueries || m2.CountQueries != m1.CountQueries || m2.AskRequests == 0 {
		t.Errorf("repeat plan-time requests = %d/%d/%d, want the first run's %d/%d/%d",
			m2.AskRequests, m2.CheckQueries, m2.CountQueries, m1.AskRequests, m1.CheckQueries, m1.CountQueries)
	}
	// The subquery cache is its own option: phase 1 is reused.
	if m2.Phase1Requests != 0 {
		t.Errorf("repeat Phase1Requests = %d, want 0 (served from the subquery cache)", m2.Phase1Requests)
	}
	if !reflect.DeepEqual(testfed.Canon(res1), testfed.Canon(res2)) {
		t.Error("cached repeat returned different results")
	}
	for _, e := range l.CacheStats() {
		if e.Name != "subquery" && e.Stats != (CacheStats{}) {
			t.Errorf("%s facts touched with plan knowledge disabled: %+v", e.Name, e.Stats)
		}
	}

	// The reuse stays behind the coherence fence: after churn on one
	// endpoint the cached relation is not served.
	ep1.ApplyChurn(rdf.Graph{
		rdf.T(testfed.IRI("Zed"), testfed.IRI("advisor"), testfed.IRI("Ben")),
		rdf.T(testfed.IRI("Zed"), testfed.IRI("takesCourse"), testfed.IRI("OS")),
	}, nil)
	res3, m3, _, err := l.ExecuteStreamTraced(context.Background(), testfed.QaChain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Phase1Requests == 0 {
		t.Error("churned endpoint's cached relation was served")
	}
	want, err := New(eps, Config{DisableCache: true}).Execute(context.Background(), testfed.QaChain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(testfed.Canon(res3), testfed.Canon(want)) {
		t.Errorf("after churn got %v, want %v", testfed.Canon(res3), testfed.Canon(want))
	}
	if res3.Len() == res1.Len() {
		t.Error("churn did not change the answer — test fixture broken")
	}
}

func TestPersistentCacheStreamedReuse(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	l := New(eps, Config{SubqueryCacheSize: 64})

	collect := func() ([]sparql.Binding, Metrics, error) {
		var rows []sparql.Binding
		_, m, _, err := l.ExecuteStreamTraced(context.Background(), testfed.QaChain,
			func(vars []sparql.Var, chunk []sparql.Binding) error {
				rows = append(rows, chunk...)
				return nil
			})
		return rows, m, err
	}
	rows1, _, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	endpoint.ResetAll(eps)
	rows2, m2, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows1) == 0 || len(rows1) != len(rows2) {
		t.Fatalf("streamed repeat rows = %d, first run = %d", len(rows2), len(rows1))
	}
	if m2.Phase1Requests != 0 {
		t.Errorf("streamed repeat Phase1Requests = %d, want 0", m2.Phase1Requests)
	}
	if hits := subqueryCacheHits(l); hits == 0 {
		t.Error("no subquery cache hits on streamed repeat")
	}
	if reqs := endpoint.TotalStats(eps).Requests; reqs != 0 {
		// Phase 2 may still run bound subqueries; QaChain's plan keeps
		// one delayed subquery, so allow its traffic but nothing else.
		if m2.Phase2Requests == 0 {
			t.Errorf("streamed repeat sent %d endpoint requests with no phase-2 work", reqs)
		}
	}
}

func TestInvalidateEndpointCachesScoped(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	l := New(eps, Config{SubqueryCacheSize: 64})
	if _, err := l.Execute(context.Background(), testfed.QaChain); err != nil {
		t.Fatal(err)
	}
	stats := l.CacheStats()
	for _, e := range stats {
		if e.Name == "subquery" && e.Stats.Entries == 0 {
			t.Fatal("no subquery entries cached")
		}
	}
	l.InvalidateEndpointCaches(ep1.Name())
	// Repeat: entries sourced from ep1 are gone, so phase-1 work returns.
	endpoint.ResetAll(eps)
	_, m, _, err := l.ExecuteStreamTraced(context.Background(), testfed.QaChain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Phase1Requests == 0 {
		t.Error("endpoint-scoped invalidation left all phase-1 entries live")
	}
}

func subqueryCacheHits(l *Lusail) int64 {
	for _, e := range l.CacheStats() {
		if e.Name == "subquery" {
			return e.Stats.Hits
		}
	}
	return 0
}

// callResult is one concurrent call's outcome.
type callResult struct {
	res *sparql.Results
	m   Metrics
	err error
}

// runConcurrently runs queries as concurrent calls on l — how a workload
// gets multi-query optimization from an engine built with a subquery
// cache, whose single flight runs a subquery the calls share once.
// Outcomes are in input order.
func runConcurrently(l *Lusail, queries []string) []callResult {
	out := make([]callResult, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			c := &out[i]
			c.res, c.m, _, c.err = l.ExecuteStreamTraced(context.Background(), q, nil)
		}(i, q)
	}
	wg.Wait()
	return out
}

func TestExecuteBatchSharesSubqueries(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}

	// Three queries sharing the advisor/takesCourse subquery.
	queries := []string{
		testfed.QaChain,
		`SELECT ?S ?P WHERE {
			?S <http://ex/advisor> ?P .
			?S <http://ex/takesCourse> ?C .
			?P <http://ex/PhDDegreeFrom> ?U .
		}`,
		testfed.QaChain,
	}
	// Sequential ground truth, on an engine that shares nothing with the
	// concurrent one.
	seq := New(eps, Config{})
	var want [][]string
	for _, q := range queries {
		res, err := seq.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, testfed.Canon(res))
	}

	endpoint.ResetAll(eps)
	l := New(eps, Config{SubqueryCacheSize: 64})
	batch := runConcurrently(l, queries)
	for i, br := range batch {
		if br.err != nil {
			t.Fatalf("batch query %d: %v", i, br.err)
		}
		if !reflect.DeepEqual(testfed.Canon(br.res), want[i]) {
			t.Errorf("batch query %d differs from sequential execution", i)
		}
	}
	if subqueryCacheHits(l) == 0 {
		t.Error("expected shared subquery executions in the batch")
	}
}

func TestExecuteBatchFewerRequestsThanSequential(t *testing.T) {
	run := func(batch bool) int64 {
		ep1, ep2 := testfed.Universities()
		eps := []endpoint.Endpoint{ep1, ep2}
		queries := []string{testfed.QaChain, testfed.QaChain, testfed.QaChain}
		if batch {
			for _, br := range runConcurrently(New(eps, Config{SubqueryCacheSize: 64}), queries) {
				if br.err != nil {
					t.Fatal(br.err)
				}
			}
		} else {
			// Fresh engine per query: no shared caches at all.
			for _, q := range queries {
				lq := New(eps, Config{})
				if _, err := lq.Execute(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}
		}
		return endpoint.TotalStats(eps).Requests
	}
	seq := run(false)
	bat := run(true)
	if bat >= seq {
		t.Errorf("batch used %d requests, sequential %d — MQO should save work", bat, seq)
	}
}

// TestExecuteBatchIdenticalQueriesExecuteOnce: identical concurrent
// queries send every phase-1 subquery to the wire once — the streaming
// tail too, which is the only subquery of a single-pattern query.
func TestExecuteBatchIdenticalQueriesExecuteOnce(t *testing.T) {
	for _, q := range []string{`SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p }`, testfed.QaChain} {
		ep1, ep2 := testfed.Universities()
		eps := []endpoint.Endpoint{ep1, ep2}
		want, single, _, err := New(eps, Config{}).ExecuteStreamTraced(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		phase1 := 0
		for i, br := range runConcurrently(New(eps, Config{SubqueryCacheSize: 64}), []string{q, q, q, q}) {
			if br.err != nil {
				t.Fatalf("batch query %d: %v", i, br.err)
			}
			if !reflect.DeepEqual(testfed.Canon(br.res), testfed.Canon(want)) {
				t.Errorf("batch query %d differs from a single execution", i)
			}
			phase1 += br.m.Phase1Requests
		}
		if single.Phase1Requests == 0 || phase1 != single.Phase1Requests {
			t.Errorf("4 identical queries sent %d phase-1 requests, one query sends %d\n%s", phase1, single.Phase1Requests, q)
		}
	}
}

// TestRepeatedQueryReusesTheTail: wherever the rows are held anyway — a
// collected entry point, a blocking modifier in front of a sink — the
// repeat of a query finds every subquery in the persistent cache, the
// streaming tail included.
func TestRepeatedQueryReusesTheTail(t *testing.T) {
	ctx := context.Background()
	drop := func([]sparql.Var, []sparql.Binding) error { return nil }
	for name, run := range map[string]func(l *Lusail) (*sparql.Results, Metrics, *trace.Trace, error){
		"single pattern, collected": func(l *Lusail) (*sparql.Results, Metrics, *trace.Trace, error) {
			return l.ExecuteStreamTraced(ctx, `SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p }`, nil)
		},
		"two subqueries, DISTINCT before a sink": func(l *Lusail) (*sparql.Results, Metrics, *trace.Trace, error) {
			return l.ExecuteStreamTraced(ctx, `SELECT DISTINCT ?s ?x WHERE { ?s <http://ex/advisor> ?p . ?x <http://ex/PhDDegreeFrom> ?u }`, drop)
		},
	} {
		ep1, ep2 := testfed.Universities()
		l := New([]endpoint.Endpoint{ep1, ep2}, Config{SubqueryCacheSize: 16})
		res1, m1, _, err := run(l)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res2, m2, _, err := run(l)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m1.Phase1Requests == 0 || m2.Phase1Requests != 0 || res1.Len() == 0 || res2.Len() != res1.Len() {
			t.Errorf("%s: phase-1 requests %d then %d, rows %d then %d; want the repeat served from the cache",
				name, m1.Phase1Requests, m2.Phase1Requests, res1.Len(), res2.Len())
		}
	}
}

func TestExecuteBatchPropagatesErrors(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{ep1, ep2}, Config{SubqueryCacheSize: 64})
	batch := runConcurrently(l, []string{testfed.QaChain, "NOT SPARQL"})
	if batch[0].err != nil {
		t.Errorf("valid query failed: %v", batch[0].err)
	}
	if batch[1].err == nil {
		t.Error("invalid query succeeded")
	}
}

// TTL boundary: an entry is expired AT its expires instant, not one
// tick after. The lookup predicate is !now.Before(expires) — serving
// a result at the exact moment its validity window closes would make
// the window [store, store+ttl] instead of the documented
// [store, store+ttl).
func TestSubqueryCacheTTLBoundaryExact(t *testing.T) {
	c := NewSubqueryCache(nil, 0, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	storeRel(c, "k", nil, relOf([]sparql.Var{"s"}, b("s", "1")))

	// One nanosecond before the boundary: still valid.
	now = time.Unix(1000, 0).Add(time.Minute - time.Nanosecond)
	if _, ok := cached(c, context.Background(), "k"); !ok {
		t.Fatal("entry expired one tick before its boundary")
	}
	// Exactly at the boundary: expired.
	now = time.Unix(1000, 0).Add(time.Minute)
	if _, ok := cached(c, context.Background(), "k"); ok {
		t.Fatal("entry served at its exact expiry instant")
	}
	if st := c.Stats(); st.Expirations != 1 || st.Entries != 0 {
		t.Errorf("stats after boundary expiry = %+v", st)
	}
}

// TTL expiry during a waiter retry: a waiter that re-enters the
// compute loop after its leader failed must not trust an entry that
// expired while it was blocked. The retry's lookup runs at wake-up
// time, so an entry stored during the wait but already past its TTL
// is dropped and recomputed, not served.
func TestSubqueryCacheTTLExpiresDuringWaiterRetry(t *testing.T) {
	c := NewSubqueryCache(nil, 0, time.Minute)
	base := time.Unix(2000, 0)
	now := base
	var nowMu sync.Mutex
	c.now = func() time.Time { nowMu.Lock(); defer nowMu.Unlock(); return now }
	setNow := func(t time.Time) { nowMu.Lock(); now = t; nowMu.Unlock() }

	joined := make(chan struct{})
	var joinOnce sync.Once
	c.onWait = func(string) { joinOnce.Do(func() { close(joined) }) }

	leaderStarted := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", nil, false, true, func() (*Relation, error) {
			close(leaderStarted)
			<-release
			return nil, errors.New("endpoint down")
		})
		leaderDone <- err
	}()
	<-leaderStarted

	type waiterResult struct {
		rel *Relation
		err error
	}
	waiterDone := make(chan waiterResult, 1)
	recomputed := 0
	go func() {
		rel, _, err := c.Do(context.Background(), "k", nil, false, true, func() (*Relation, error) {
			recomputed++
			return relOf([]sparql.Var{"s"}, b("s", "fresh")), nil
		})
		waiterDone <- waiterResult{rel, err}
	}()
	<-joined

	// While the waiter is blocked: a side channel stores an entry for
	// the same key, and the clock jumps past that entry's expiry before
	// the leader fails.
	storeRel(c, "k", nil, relOf([]sparql.Var{"s"}, b("s", "stale")))
	setNow(base.Add(2 * time.Minute))
	close(release)

	if err := <-leaderDone; err == nil {
		t.Error("leader must surface its own error")
	}
	w := <-waiterDone
	if w.err != nil {
		t.Fatalf("waiter failed: %v", w.err)
	}
	if recomputed != 1 {
		t.Errorf("waiter recomputed %d times, want 1", recomputed)
	}
	if len(w.rel.Rows) != 1 {
		t.Fatalf("waiter rows = %d, want 1", len(w.rel.Rows))
	}
	if got := w.rel.Rows[0]["s"]; got != rdf.IRI("http://ex/fresh") {
		t.Errorf("waiter served %v, want the fresh recompute (stale entry expired mid-wait)", got)
	}
	if st := c.Stats(); st.Expirations != 1 {
		t.Errorf("expirations = %d, want 1 (the mid-wait entry)", st.Expirations)
	}
}
