package federation

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/stats"
	"lusail/internal/testfed"
)

// The conformance suite of the one plan-knowledge store. Every rule is
// checked for each kind of fact and for the summary through the same
// table, because they share the one implementation.

// hookEP runs before ahead of each query it forwards — the harness for
// landing an invalidation while a probe or a harvest is in flight.
type hookEP struct {
	endpoint.Endpoint
	n      atomic.Int32
	after  int32 // fire before on the after-th query (0 or 1: the first)
	before func()
}

func (h *hookEP) Query(ctx context.Context, q string) (*sparql.Results, error) {
	if h.n.Add(1) == max(h.after, 1) && h.before != nil {
		h.before()
	}
	return h.Endpoint.Query(ctx, q)
}

const advisor = "<" + testfed.NS + "advisor>"

// item is one thing the store can learn about an endpoint: a fact of
// some kind, or the summary.
type item struct {
	name string
	// learn makes the store learn the item about ep, through Probe or a
	// harvest — whichever store path the item takes.
	learn func(t *testing.T, k *Knowledge, ep endpoint.Endpoint)
	// known reports whether the store holds the item for endpoint name.
	known func(k *Knowledge, name string) bool
}

func factItem(kind Kind, text string) item {
	q := func(ep endpoint.Endpoint) Question { return Question{EP: ep, Kind: kind, Text: text} }
	return item{
		name: kind.String(),
		learn: func(t *testing.T, k *Knowledge, ep endpoint.Endpoint) {
			t.Helper()
			answers, err := k.Probe(context.Background(), nil, "test", []Question{q(ep)})
			if err != nil || !answers[0].OK {
				t.Fatalf("probe %s: %v %+v", kind, err, answers)
			}
		},
		known: func(k *Knowledge, name string) bool {
			qq := q(named(name))
			_, tier := k.Lookup(&qq)
			return tier == TierFact
		},
	}
}

// named is an endpoint that only has a name, for lookups.
type named string

func (n named) Name() string { return string(n) }
func (n named) Query(context.Context, string) (*sparql.Results, error) {
	return nil, fmt.Errorf("%s is not queryable", string(n))
}

var items = []item{
	factItem(KindAsk, "ASK { ?s "+advisor+" ?o }"),
	factItem(KindCheck, "SELECT ?v WHERE { ?x1 "+advisor+" ?v . FILTER NOT EXISTS { ?v <"+testfed.NS+"teacherOf> ?x2 . } } LIMIT 1"),
	factItem(KindCount, "SELECT (COUNT(*) AS ?c) WHERE { ?s "+advisor+" ?o }"),
	{
		name: "summary",
		learn: func(t *testing.T, k *Knowledge, ep endpoint.Endpoint) {
			t.Helper()
			// Errors are the caller's to judge: a refused store is one.
			_ = stats.New([]endpoint.Endpoint{ep}, stats.Config{}, k).Refresh(context.Background())
		},
		known: func(k *Knowledge, name string) bool {
			q := Question{EP: named(name), Kind: KindAsk, Text: "never stored",
				Summary: func(*stats.Summary) (float64, bool) { return 1, true }}
			_, tier := k.Lookup(&q)
			return tier == TierSummary
		},
	},
}

func universities() (ep1, ep2 *endpoint.Local, eps []endpoint.Endpoint) {
	ep1, ep2 = testfed.Universities()
	return ep1, ep2, []endpoint.Endpoint{ep1, ep2}
}

func TestKnowledgeLearnsAndForgets(t *testing.T) {
	for _, it := range items {
		t.Run(it.name, func(t *testing.T) {
			ep1, ep2, eps := universities()
			k := NewKnowledge(eps)
			if it.known(k, "EP1") {
				t.Fatal("known before learning")
			}
			it.learn(t, k, ep1)
			it.learn(t, k, ep2)
			if !it.known(k, "EP1") || !it.known(k, "EP2") {
				t.Fatal("not known after learning")
			}
			// Invalidation is per endpoint.
			k.Invalidate("EP1")
			if it.known(k, "EP1") {
				t.Error("survived Invalidate")
			}
			if !it.known(k, "EP2") {
				t.Error("Invalidate(EP1) dropped EP2's")
			}
			k.Clear()
			if it.known(k, "EP2") {
				t.Error("survived Clear")
			}
			// The store keeps working after both.
			it.learn(t, k, ep1)
			if !it.known(k, "EP1") {
				t.Error("not learnable again after invalidation")
			}
		})
	}
}

// TestKnowledgeFencesInFlightStores: what is learned from a request
// that was in flight when its endpoint was invalidated is not stored —
// the reply may describe data that is gone — while invalidating another
// endpoint refuses nothing. (With one generation per cache, churn on A
// refused every in-flight store for B.)
func TestKnowledgeFencesInFlightStores(t *testing.T) {
	invalidations := []struct {
		name   string
		do     func(k *Knowledge)
		stored bool
	}{
		{"invalidate-self", func(k *Knowledge) { k.Invalidate("EP1") }, false},
		{"clear", func(k *Knowledge) { k.Clear() }, false},
		{"invalidate-other", func(k *Knowledge) { k.Invalidate("EP2") }, true},
	}
	for _, it := range items {
		for _, inv := range invalidations {
			t.Run(it.name+"/"+inv.name, func(t *testing.T) {
				ep1, _, eps := universities()
				k := NewKnowledge(eps)
				// A harvest is many queries: land the invalidation in
				// its middle. A probe is one.
				racing := &hookEP{Endpoint: ep1, before: func() { inv.do(k) }}
				if it.name == "summary" {
					racing.after = 3
				}
				it.learn(t, k, racing)
				if got := it.known(k, "EP1"); got != inv.stored {
					t.Errorf("stored = %v, want %v", got, inv.stored)
				}
			})
		}
	}
}

func TestKnowledgeDiscardsHarvestThatRacedInvalidation(t *testing.T) {
	ep1, _, eps := universities()
	k := NewKnowledge(eps)
	racing := &hookEP{Endpoint: ep1, after: 3, before: func() { k.Invalidate("EP1") }}
	svc := stats.New([]endpoint.Endpoint{racing}, stats.Config{}, k)
	if err := svc.Refresh(context.Background()); err == nil {
		t.Fatal("a harvest that raced an invalidation reported success")
	}
	var st stats.ServiceStats
	k.SummaryStats(&st)
	if d := svc.Stats().Discards; d != 1 || st.Summaries != 0 {
		t.Fatalf("discards = %d, summaries held = %d; want 1 and 0", d, st.Summaries)
	}
	// The next, undisturbed harvest is kept.
	racing.before = nil
	if err := svc.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if k.SummaryStats(&st); st.Summaries != 1 {
		t.Fatalf("summaries held = %d after a clean harvest, want 1", st.Summaries)
	}
}

// TestKnowledgeFencesSummaryByVersion: a summary answers only while its
// data-version stamp equals the endpoint's tracked version; where no
// version is tracked it is served unverified.
func TestKnowledgeFencesSummaryByVersion(t *testing.T) {
	ep1, _, eps := universities()
	k := NewKnowledge(eps)
	k.Refresh(context.Background())
	if err := stats.New(eps[:1], stats.Config{}, k).Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	// track sets the slot's version without the drop a probe would
	// cause, leaving the held summary's stamp behind it.
	track := func(v uint64, ok bool) {
		s := k.slots[ep1.Name()]
		s.version, s.versioned = v, ok
	}
	tp := sparql.MustParse(`SELECT * WHERE { ?s ` + advisor + ` ?o }`).Where.Patterns[0]
	q := Question{EP: ep1, Kind: KindAsk, Text: AskQueryFor(tp),
		Summary: func(sum *stats.Summary) (float64, bool) {
			relevant, ok := sum.Relevant(tp)
			return Truth(relevant), ok
		}}
	answered := func() bool {
		v, tier := k.Lookup(&q)
		return tier == TierSummary && v == 1
	}
	if !answered() {
		t.Fatal("summary at the current version did not answer")
	}
	track(2, true) // the endpoint's data moved on; the stamp trails it
	if answered() {
		t.Fatal("stale summary answered after the data version moved")
	}
	track(0, false) // an unversioned endpoint: unverifiable, not stale
	if !answered() {
		t.Fatal("summary refused although no current version can be determined")
	}
	var st stats.ServiceStats
	k.SummaryStats(&st)
	if st.Hits != 2 || st.Fenced != 1 || st.AskAnswers != 2 {
		t.Fatalf("hits/fenced/ask answers = %d/%d/%d, want 2/1/2", st.Hits, st.Fenced, st.AskAnswers)
	}
	// A summary answer is not a fact: nothing was stored or probed.
	if e := k.Stats(KindAsk).Entries; e != 0 {
		t.Fatalf("summary answers left %d facts behind", e)
	}
}

func TestNilKnowledgeProbesAndRetainsNothing(t *testing.T) {
	ep1, _, _ := universities()
	var k *Knowledge
	q := Question{EP: ep1, Kind: KindAsk, Text: "ASK { ?s " + advisor + " ?o }"}
	for i := 0; i < 2; i++ {
		if _, tier := k.Lookup(&q); tier != TierNone {
			t.Fatal("nil knowledge answered locally")
		}
		answers, err := k.Probe(context.Background(), nil, "test", []Question{q})
		if err != nil || !answers[0].OK || answers[0].Value != 1 {
			t.Fatalf("nil knowledge probe = %+v, %v", answers, err)
		}
	}
	if got := ep1.Stats().Requests; got != 2 {
		t.Fatalf("requests = %d, want 2 (nothing retained)", got)
	}
	if !k.StoreSummary(k.Gen("EP1"), &stats.Summary{Endpoint: "EP1"}) {
		t.Error("nil knowledge refused a summary (it keeps nothing and refuses nothing)")
	}
	if _, ok := k.PairCard("EP1", "x", sparql.TriplePattern{}, sparql.TriplePattern{}); ok {
		t.Error("nil knowledge answered a pair question")
	}
	k.Invalidate("EP1")
	k.Clear()
	var st stats.ServiceStats
	k.SummaryStats(&st)
	if k.Stats(KindCount) != (CacheStats{}) || st != (stats.ServiceStats{}) {
		t.Error("nil knowledge reported non-zero stats")
	}
}

func TestKnowledgeStatsPerKind(t *testing.T) {
	ep1, _, eps := universities()
	k := NewKnowledge(eps)
	for i, it := range items[:3] {
		kind := Kind(i)
		if it.known(k, "EP1") { // one miss
			t.Fatal("known before learning")
		}
		it.learn(t, k, ep1)
		for j := 0; j <= i; j++ { // i+1 hits
			it.known(k, "EP1")
		}
		want := CacheStats{Hits: int64(i + 1), Misses: 1, Entries: 1}
		if got := k.Stats(kind); got != want {
			t.Errorf("%s stats = %+v, want %+v", kind, got, want)
		}
	}
}

// TestProbeUnderDegradation: with an active policy a failed probe is
// answered !OK, recorded as a drop at the stage, and stores nothing —
// it reflects a fault, not the endpoint's data — while its siblings are
// answered and stored. Without a policy the first failure fails the
// batch.
func TestProbeUnderDegradation(t *testing.T) {
	ep1, ep2, eps := universities()
	dead := endpoint.NewFaulty(ep2, endpoint.FaultConfig{Down: true})
	k := NewKnowledge(eps)
	text := "SELECT (COUNT(*) AS ?c) WHERE { ?s " + advisor + " ?o }"
	qs := []Question{{EP: ep1, Kind: KindCount, Text: text}, {EP: dead, Kind: KindCount, Text: text}}

	if _, err := k.Probe(context.Background(), nil, "count-estimation", qs); err == nil {
		t.Fatal("a dead endpoint went unnoticed without a degradation policy")
	}
	k.Clear()

	dg := endpoint.NewDegrade(endpoint.DegradeBestEffort, time.Time{})
	answers, err := k.Probe(context.Background(), dg, "count-estimation", qs)
	if err != nil {
		t.Fatal(err)
	}
	if !answers[0].OK || answers[0].Value != 2 || answers[1].OK {
		t.Fatalf("answers = %+v, want {2 true} and a dropped probe", answers)
	}
	drops := dg.Drops()
	if len(drops) != 1 || drops[0].Endpoint != "EP2" || drops[0].Phase != "count-estimation" {
		t.Fatalf("drops = %+v, want EP2@count-estimation", drops)
	}
	if _, tier := k.Lookup(&qs[0]); tier != TierFact {
		t.Error("the surviving probe's answer was not stored")
	}
	if _, tier := k.Lookup(&qs[1]); tier != TierNone {
		t.Error("a failed probe was stored as a fact")
	}
}

// TestFactsAreBounded: unique facts that are never read again (filtered
// COUNT probes carry a per-query text) are evicted, a re-read hot set
// is not, and the slot never holds more than its bound.
func TestFactsAreBounded(t *testing.T) {
	_, _, eps := universities()
	k := NewKnowledge(eps)
	ep := eps[0]
	store := func(kind Kind, text string) {
		k.storeFact(ep.Name(), k.Gen(ep.Name()), factKey{kind, text}, 1)
	}
	hot := make([]Question, 32)
	for i := range hot {
		hot[i] = Question{EP: ep, Kind: Kind(i % int(numKinds)), Text: fmt.Sprintf("hot %d", i)}
		store(hot[i].Kind, hot[i].Text)
	}
	entries := func() int {
		return k.Stats(KindAsk).Entries + k.Stats(KindCheck).Entries + k.Stats(KindCount).Entries
	}
	for i := 0; i < 4*factsPerEndpoint; i++ {
		store(KindCount, fmt.Sprintf("unique %d", i))
		if i%64 == 0 {
			for j := range hot {
				if _, tier := k.Lookup(&hot[j]); tier != TierFact {
					t.Fatalf("hot fact %d evicted after %d unique stores", j, i)
				}
			}
			if n := entries(); n > factsPerEndpoint {
				t.Fatalf("%d facts held after %d stores, bound is %d", n, i, factsPerEndpoint)
			}
		}
	}
	if ev := k.Stats(KindCount).Evictions; ev < 2*factsPerEndpoint {
		t.Errorf("count evictions = %d, want most of the %d unique stores", ev, 4*factsPerEndpoint)
	}
	if ev := k.Stats(KindAsk).Evictions; ev != 0 {
		t.Errorf("ask evictions = %d: the hot set was evicted", ev)
	}
}

func TestCountValueSelectsDeclaredColumn(t *testing.T) {
	// countValue used to take whichever column map iteration yielded
	// first; a reply echoing a projected variable beside the aggregate
	// made the estimate nondeterministic.
	res := &sparql.Results{
		Vars: []sparql.Var{"x", CountVar},
		Rows: []sparql.Binding{{"x": rdf.Integer(99), CountVar: rdf.Integer(3)}},
	}
	for i := 0; i < 50; i++ {
		if v, err := countValue(res); err != nil || v != 3 {
			t.Fatalf("countValue = %v, %v; want 3", v, err)
		}
	}
	// A reply without the declared column is an error, not a guess.
	bad := &sparql.Results{Vars: []sparql.Var{"x"}, Rows: []sparql.Binding{{"x": rdf.Integer(7)}}}
	if _, err := countValue(bad); err == nil {
		t.Error("missing ?c column accepted")
	}
}

// TestProbeFailFastCancelsInFlightSiblings: without a policy the first
// failing probe cancels a sibling hung at another endpoint.
func TestProbeFailFastCancelsInFlightSiblings(t *testing.T) {
	hangs := newBlockEndpoint("hung")
	// The failure fires only after the sibling is in flight, so the
	// cancellation must interrupt a genuinely hung request.
	fails := &failEndpoint{name: "bad", after: hangs.started}
	qs := []Question{{EP: hangs, Kind: KindAsk, Text: "q0"}, {EP: fails, Kind: KindAsk, Text: "q1"}}
	start := time.Now()
	if _, err := NewKnowledge(nil).Probe(context.Background(), nil, "test", qs); !errors.Is(err, errTerminal) {
		t.Fatalf("err = %v, want the terminal failure", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("fail-fast took %v; the hung sibling was not cancelled", el)
	}
	if hangs.requests.Load() != 1 {
		t.Errorf("hung endpoint saw %d requests, want 1", hangs.requests.Load())
	}
}

// TestProbeFailFastShortCircuitsQueuedProbes: after the first failure,
// probes queued behind the window of another endpoint are never sent.
func TestProbeFailFastShortCircuitsQueuedProbes(t *testing.T) {
	slow := &slowEndpoint{name: "slow", delay: 30 * time.Millisecond}
	fails := &failEndpoint{name: "bad"}
	qs := []Question{{EP: fails, Kind: KindAsk, Text: "boom"}}
	for i := 0; i < 8; i++ {
		qs = append(qs, Question{EP: slow, Kind: KindAsk, Text: fmt.Sprintf("q%d", i)})
	}
	if _, err := NewKnowledge(nil).Probe(context.Background(), nil, "test", qs); !errors.Is(err, errTerminal) {
		t.Fatalf("err = %v, want the terminal failure", err)
	}
	if got := slow.requests.Load(); got > endpointWindow {
		t.Errorf("slow endpoint saw %d of 8 queued probes, want at most the window %d; queue was not short-circuited", got, endpointWindow)
	}
}

// TestProbeHealthyBatchAnswersAll: a batch without failures answers
// every question, in question order.
func TestProbeHealthyBatchAnswersAll(t *testing.T) {
	ep1, ep2, eps := universities()
	ask := func(ep endpoint.Endpoint, p string) Question {
		return Question{EP: ep, Kind: KindAsk, Text: "ASK { ?s <" + testfed.NS + p + "> ?o }"}
	}
	qs := []Question{ask(ep1, "advisor"), ask(ep2, "advisor"), ask(ep1, "bogusP")}
	answers, err := NewKnowledge(eps).Probe(context.Background(), nil, "test", qs)
	if err != nil {
		t.Fatalf("healthy batch failed: %v", err)
	}
	for i, want := range []float64{1, 1, 0} {
		if !answers[i].OK || answers[i].Value != want {
			t.Errorf("answer %d = %+v, want %v", i, answers[i], want)
		}
	}
}
