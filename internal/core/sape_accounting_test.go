package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/trace"
)

// Phase-1 accounting regressions: a degradation policy that drops an
// endpoint's contribution must not leave the relation claiming the
// dead endpoint as a partition (inflating JoinCost and the parallel
// join fan-out), and latency attribution must survive a subquery whose
// tasks all fail.

// accountingFederation builds n tiny endpoints each holding one triple
// matching "?s <http://ex/p> ?o", with the endpoints at the given
// indexes hard-down.
func accountingFederation(n int, down ...int) []endpoint.Endpoint {
	isDown := map[int]bool{}
	for _, i := range down {
		isDown[i] = true
	}
	eps := make([]endpoint.Endpoint, n)
	for i := range eps {
		st := store.New()
		st.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://ex/s%d", i)),
			P: rdf.IRI("http://ex/p"),
			O: rdf.Literal(fmt.Sprintf("v%d", i)),
		})
		var ep endpoint.Endpoint = endpoint.NewLocal(fmt.Sprintf("acct%d", i), st)
		if isDown[i] {
			ep = endpoint.NewFaulty(ep, endpoint.FaultConfig{Down: true})
		}
		eps[i] = ep
	}
	return eps
}

func accountingSubquery() *Subquery {
	return &Subquery{
		Patterns: []sparql.TriplePattern{{
			S: sparql.V("s"),
			P: sparql.C(rdf.IRI("http://ex/p")),
			O: sparql.V("o"),
		}},
		Sources:  []int{0, 1, 2},
		ProjVars: []sparql.Var{"s", "o"},
	}
}

func degraded(policy endpoint.DegradePolicy) *endpoint.Degrade {
	return endpoint.NewDegrade(policy, time.Time{})
}

// TestPhase1PartitionsExcludeDroppedSources: when skip-endpoint
// degradation drops a dead endpoint's contribution, the relation's
// partition count must shrink to the sources that answered.
func TestPhase1PartitionsExcludeDroppedSources(t *testing.T) {
	ex := NewExecutor(accountingFederation(3, 2))
	rows := 0
	rel, err := ex.evalUnbound(context.Background(), accountingSubquery(), degraded(endpoint.DegradeSkipEndpoint), func(part []sparql.Binding) { rows += len(part) })
	if err != nil {
		t.Fatalf("evalUnbound: %v", err)
	}
	if rows != 2 {
		t.Fatalf("rows = %d, want 2 (the live endpoints)", rows)
	}
	if rel.Partitions != 2 {
		t.Errorf("Partitions = %d after dropping 1 of 3 sources, want 2", rel.Partitions)
	}
	if len(rel.Dropped) != 1 {
		t.Errorf("Dropped = %v, want the dead endpoint's record", rel.Dropped)
	}
}

// TestBoundPartitionsExcludeDroppedSources: the phase-2 bound path has
// the same accounting — an endpoint dropped mid-blocks is not a
// surviving partition.
func TestBoundPartitionsExcludeDroppedSources(t *testing.T) {
	ex := NewExecutor(accountingFederation(3, 0))
	sq := accountingSubquery()
	sq.Delayed = true
	fb := newFoundBindings()
	fb.sets["s"] = map[rdf.Term]struct{}{
		rdf.IRI("http://ex/s1"): {},
		rdf.IRI("http://ex/s2"): {},
	}
	rel, err := ex.runBound(context.Background(), sq, fb, degraded(endpoint.DegradeBestEffort), &Metrics{})
	if err != nil {
		t.Fatalf("runBound: %v", err)
	}
	if rel.Partitions != 2 {
		t.Errorf("bound Partitions = %d after dropping 1 of 3 sources, want 2", rel.Partitions)
	}
}

// TestAllFailedSubqueryKeepsDuration: a subquery whose phase-1 tasks
// are all absorbed into drops must still record the slowest attempted
// task's duration on its span, or latency attribution silently zeroes
// out exactly the degraded queries worth investigating.
func TestAllFailedSubqueryKeepsDuration(t *testing.T) {
	slow := 5 * time.Millisecond
	eps := accountingFederation(3, 0, 1, 2)
	for i, ep := range eps {
		f := ep.(*endpoint.Faulty)
		_ = f
		// Re-wrap with a hang-free latency so the failed attempts take
		// observable wall clock: a Down endpoint fails instantly.
		eps[i] = endpoint.NewFaulty(slowEndpoint{Endpoint: f, delay: slow},
			endpoint.FaultConfig{})
	}
	ex := NewExecutor(eps)
	sq := accountingSubquery()
	tr := trace.New("q")
	ctx := trace.WithSpan(context.Background(), tr.Root)
	err := ex.Execute(ctx, &Plan{Subqueries: []*Subquery{sq}}, nil, degraded(endpoint.DegradeBestEffort), &Metrics{},
		func([]sparql.Var, []sparql.Binding) error { return nil }, false)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	sp := tr.Root.Find("sq0")
	if sp == nil {
		t.Fatal("no sq0 span recorded")
	}
	if d := sp.Duration(); d < slow {
		t.Errorf("all-failed subquery span duration = %v, want >= %v (slowest attempted task)", d, slow)
	}
}

// slowEndpoint delays each call before delegating, so even failing
// attempts consume measurable wall clock.
type slowEndpoint struct {
	endpoint.Endpoint
	delay time.Duration
}

func (s slowEndpoint) Query(ctx context.Context, q string) (*sparql.Results, error) {
	time.Sleep(s.delay)
	return s.Endpoint.Query(ctx, q)
}
