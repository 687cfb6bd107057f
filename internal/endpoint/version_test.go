package endpoint

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

func churnGraph(n int) rdf.Graph {
	g := make(rdf.Graph, 0, n)
	for i := 0; i < n; i++ {
		g = append(g, rdf.T(
			rdf.IRI("http://ex/churn"+string(rune('a'+i))),
			rdf.IRI("http://ex/p"),
			rdf.Literal("v")))
	}
	return g
}

func TestLocalDataVersion(t *testing.T) {
	l := NewLocal("ep", testStore())
	v, err := l.DataVersion(context.Background())
	if err != nil {
		t.Fatalf("DataVersion: %v", err)
	}
	if v != 1 {
		t.Fatalf("initial data version = %d, want 1", v)
	}

	before := l.Store().Len()
	ins := churnGraph(2)
	l.ApplyChurn(ins, nil)
	if v, _ = l.DataVersion(context.Background()); v != 2 {
		t.Fatalf("version after insert churn = %d, want 2", v)
	}
	if got := l.Store().Len(); got != before+2 {
		t.Fatalf("store length after insert churn = %d, want %d", got, before+2)
	}

	// A churn batch is one version bump, however many triples move.
	l.ApplyChurn(nil, ins)
	if v, _ = l.DataVersion(context.Background()); v != 3 {
		t.Fatalf("version after delete churn = %d, want 3", v)
	}
	if got := l.Store().Len(); got != before {
		t.Fatalf("store length after delete churn = %d, want %d", got, before)
	}

	// Empty churn must not bump: probes would see phantom changes.
	l.ApplyChurn(nil, nil)
	if v, _ = l.DataVersion(context.Background()); v != 3 {
		t.Fatalf("version after empty churn = %d, want 3 (no bump)", v)
	}

	if _, err := l.DataVersion(canceledCtx()); err == nil {
		t.Fatal("DataVersion with cancelled context should fail")
	}
}

// opaqueEndpoint exposes no data version.
type opaqueEndpoint struct{}

func (opaqueEndpoint) Name() string { return "opaque" }
func (opaqueEndpoint) Query(ctx context.Context, q string) (*sparql.Results, error) {
	return &sparql.Results{}, nil
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// DataVersionOf must see through Clients and fault injectors in any
// order, and must report an unversioned endpoint as not-versioned,
// never as a probe error.
func TestDataVersionOfUnwrapsDecorators(t *testing.T) {
	l := NewLocal("ep", testStore())
	chain := NewFaulty(
		NewClient(l, &ResilienceConfig{MaxRetries: 1}),
		FaultConfig{ErrorRate: 1}) // faults must not affect probes

	v, ok, err := DataVersionOf(context.Background(), chain)
	if err != nil || !ok || v != 1 {
		t.Fatalf("DataVersionOf(chain) = (%d, %v, %v), want (1, true, nil)", v, ok, err)
	}
	l.BumpDataVersion()
	if v, _, _ = DataVersionOf(context.Background(), chain); v != 2 {
		t.Fatalf("DataVersionOf after bump = %d, want 2", v)
	}

	// An endpoint with no DataVersioner anywhere in its chain is
	// unverifiable: ok=false and no error.
	plain := opaqueEndpoint{}
	if _, ok, err := DataVersionOf(context.Background(), NewFaulty(plain, FaultConfig{})); ok || err != nil {
		t.Fatalf("DataVersionOf(unversioned) = (_, %v, %v), want (false, nil)", ok, err)
	}
}

func TestFaultyTickChurn(t *testing.T) {
	st := store.New()
	st.AddGraph(churnGraph(4))
	l := NewLocal("ep", st)
	g := churnGraph(4)
	f := NewFaulty(l, FaultConfig{Mutations: []Mutation{
		{AtTick: 2, Delete: g[:1]},
		{AtTick: 2, Delete: g[1:2]},                // same tick: both fire, in order
		{AtTick: 5, Delete: g[2:3], Insert: g[:1]}, // swap
	}})

	f.Tick(1)
	if f.Churned() != 0 {
		t.Fatalf("churned after tick 1 = %d, want 0", f.Churned())
	}
	f.Tick(2)
	if f.Churned() != 2 {
		t.Fatalf("churned after tick 2 = %d, want 2", f.Churned())
	}
	if v, _, _ := DataVersionOf(context.Background(), f); v != 3 {
		t.Fatalf("data version after two batches = %d, want 3", v)
	}
	// Ticks are monotonic: going backwards neither unapplies nor
	// reapplies.
	f.Tick(1)
	if f.Churned() != 2 {
		t.Fatalf("churned after backwards tick = %d, want 2", f.Churned())
	}
	f.Tick(5)
	if f.Churned() != 3 || l.Store().Len() != 2 {
		t.Fatalf("after swap: churned=%d len=%d, want 3 and 2", f.Churned(), l.Store().Len())
	}
}

func TestFaultyRequestCountChurn(t *testing.T) {
	st := store.New()
	st.AddGraph(churnGraph(3))
	l := NewLocal("ep", st)
	f := NewFaulty(l, FaultConfig{Mutations: []Mutation{
		{AtRequest: 2, Delete: churnGraph(3)[:1]},
	}})
	ctx := context.Background()
	if _, err := f.Query(ctx, "SELECT ?s WHERE { ?s ?p ?o }"); err != nil {
		t.Fatal(err)
	}
	if f.Churned() != 0 {
		t.Fatal("mutation fired before its request trigger")
	}
	// The 2nd request must already see the mutated data.
	res, err := f.Query(ctx, "SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
	if err != nil {
		t.Fatal(err)
	}
	if f.Churned() != 1 {
		t.Fatalf("churned after trigger request = %d, want 1", f.Churned())
	}
	if res.Len() != 2 {
		t.Fatalf("trigger request saw %d rows, want 2 (post-churn data)", res.Len())
	}
}

// The satellite audit: hammer one Faulty wrapper from many goroutines
// with every probabilistic mode on, plus concurrent ticking and
// probing, and assert the counters stayed consistent: every request is
// either injected or completed, never both, never neither.
func TestFaultyCounterConsistencyUnderLoad(t *testing.T) {
	st := store.New()
	st.AddGraph(churnGraph(8))
	l := NewLocal("ep", st)
	f := NewFaulty(l, FaultConfig{
		Seed:            11,
		ErrorRate:       0.3,
		HangRate:        0.05,
		FailFirst:       25,
		FlapDownFor:     3,
		FlapUpFor:       9,
		MaxRequestBytes: 1 << 12,
		Mutations: []Mutation{
			{AtRequest: 40, Delete: churnGraph(1)},
			{AtTick: 3, Insert: churnGraph(1)},
		},
	})

	const workers, perWorker = 8, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Short deadline: injected hangs block until expiry.
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
				f.Query(ctx, "SELECT ?s WHERE { ?s ?p ?o }")
				cancel()
			}
		}()
	}
	done := make(chan struct{})
	go func() { // concurrent ticking and probing race the queries
		defer close(done)
		for tick := int64(1); tick <= 10; tick++ {
			f.Tick(tick)
			DataVersionOf(context.Background(), f)
			f.Requests()
			f.Churned()
		}
	}()
	wg.Wait()
	<-done

	total, injected, completed := f.Requests(), f.Injected(), f.Completed()
	if total != int64(workers*perWorker) {
		t.Fatalf("requests = %d, want %d", total, workers*perWorker)
	}
	if injected+completed != total {
		t.Fatalf("injected (%d) + completed (%d) != requests (%d)", injected, completed, total)
	}
	if f.Churned() != 2 {
		t.Fatalf("churned = %d, want both mutations applied", f.Churned())
	}
	if v, ok, err := DataVersionOf(context.Background(), f); err != nil || !ok || v != 3 {
		t.Fatalf("final data version = (%d, %v, %v), want (3, true, nil)", v, ok, err)
	}
}

func TestHandlerHeadDataVersionProbe(t *testing.T) {
	l := NewLocal("server", testStore())
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()
	ep := NewHTTP("server", srv.URL)

	v, err := ep.DataVersion(context.Background())
	if err != nil {
		t.Fatalf("HEAD probe: %v", err)
	}
	if v != 1 {
		t.Fatalf("probed version = %d, want 1", v)
	}

	l.BumpDataVersion()
	if v, _ = ep.DataVersion(context.Background()); v != 2 {
		t.Fatalf("probed version after bump = %d, want 2", v)
	}

	l.BumpDataVersion()

	// DataVersionOf resolves the HTTP client directly (it implements
	// DataVersioner itself, no unwrapping needed).
	if v, ok, err := DataVersionOf(context.Background(), ep); err != nil || !ok || v != 3 {
		t.Fatalf("DataVersionOf(http) = (%d, %v, %v), want (3, true, nil)", v, ok, err)
	}
}

// A non-lusail server answers HEAD without the version header; the
// probe must classify that as "no data version", which DataVersionOf
// maps to unverifiable rather than a probe failure.
func TestHTTPDataVersionAbsent(t *testing.T) {
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer plain.Close()
	ep := NewHTTP("plain", plain.URL)
	if _, err := ep.DataVersion(context.Background()); !errors.Is(err, ErrNoDataVersion) {
		t.Fatalf("DataVersion against a version-less server = %v, want ErrNoDataVersion", err)
	}
	if _, ok, err := DataVersionOf(context.Background(), ep); ok || err != nil {
		t.Fatalf("DataVersionOf(version-less) = (_, %v, %v), want (false, nil)", ok, err)
	}

	// An unreachable endpoint, by contrast, IS a probe failure: the
	// fence keeps the last tracked version and counts the error.
	down := NewHTTP("down", plain.URL)
	plain.Close()
	if _, ok, err := DataVersionOf(context.Background(), down); ok || err == nil {
		t.Fatalf("DataVersionOf(unreachable) = (_, %v, %v), want (false, error)", ok, err)
	}
}
