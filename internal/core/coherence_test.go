package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/stats"
	"lusail/internal/testfed"
)

// versionedStub is a minimal endpoint with a controllable data
// version and probe failure switch.
type versionedStub struct {
	name string
	v    uint64
	fail bool
}

func (s *versionedStub) Name() string { return s.name }
func (s *versionedStub) Query(ctx context.Context, q string) (*sparql.Results, error) {
	return &sparql.Results{}, nil
}
func (s *versionedStub) DataVersion(ctx context.Context) (uint64, error) {
	if s.fail {
		return 0, errors.New("probe refused")
	}
	return s.v, nil
}

// gens snapshots every endpoint's invalidation generation.
func gens(k *federation.Knowledge, eps []endpoint.Endpoint) []uint64 {
	out := make([]uint64, len(eps))
	for i, ep := range eps {
		out[i] = k.Gen(ep.Name())
	}
	return out
}

func TestCoherenceRefreshDetectsChange(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2, opaqueCoherenceEndpoint{}}
	k := federation.NewKnowledge(eps)
	ctx := context.Background()

	// First probe establishes the baseline; nothing has "changed" yet.
	k.Refresh(ctx)
	if g := gens(k, eps); !reflect.DeepEqual(g, []uint64{0, 0, 0}) {
		t.Fatalf("baseline probe invalidated: generations %v", g)
	}
	st := k.CoherenceStats()
	if st.Probes != 3 || st.Changes != 0 {
		t.Fatalf("baseline stats = %+v", st)
	}
	want := []federation.EndpointVersion{{Name: "EP1", Version: 1, Versioned: true},
		{Name: "EP2", Version: 1, Versioned: true}, {Name: "opaque"}}
	if !reflect.DeepEqual(st.Endpoints, want) {
		t.Errorf("tracked versions = %+v, want %+v", st.Endpoints, want)
	}

	// What the engine knows about the unversioned endpoint survives
	// every refresh: it cannot be fenced, so it is never dropped.
	opaqueGen := k.Gen("opaque")
	if !k.StoreSummary(opaqueGen, &stats.Summary{Endpoint: "opaque"}) {
		t.Fatal("summary store refused")
	}

	// A churn batch on one endpoint: exactly that endpoint invalidates.
	ep1.ApplyChurn(rdf.Graph{rdf.T(testfed.IRI("new"), testfed.IRI("p"), rdf.Literal("v"))}, nil)
	k.Refresh(ctx)
	if g := gens(k, eps); !reflect.DeepEqual(g, []uint64{1, 0, 0}) {
		t.Errorf("generations after churn on EP1 = %v, want [1 0 0]", g)
	}
	if st := k.CoherenceStats(); st.Changes != 1 {
		t.Errorf("changes = %d, want 1", st.Changes)
	}

	// Unchanged versions on later refreshes drop nothing.
	k.Refresh(ctx)
	if g := gens(k, eps); !reflect.DeepEqual(g, []uint64{1, 0, 0}) {
		t.Errorf("steady-state refresh re-invalidated: generations %v", g)
	}
	var sst stats.ServiceStats
	if k.SummaryStats(&sst); sst.Summaries != 1 {
		t.Errorf("summaries held = %d, want the unversioned endpoint's 1", sst.Summaries)
	}
}

// A probe failure is conservative: the endpoint keeps its last tracked
// version (entries stamped with it stay servable), the error is
// counted, and nothing is invalidated.
func TestCoherenceProbeErrorKeepsVersion(t *testing.T) {
	stub := &versionedStub{name: "s", v: 7}
	k := federation.NewKnowledge([]endpoint.Endpoint{stub})
	tracked := func() uint64 { return k.CoherenceStats().Endpoints[0].Version }
	k.Refresh(context.Background())
	if got := tracked(); got != 7 {
		t.Fatalf("tracked version = %v, want 7", got)
	}

	stub.fail = true
	stub.v = 8 // the bump is invisible while probes fail
	k.Refresh(context.Background())
	if got := tracked(); got != 7 {
		t.Errorf("failed probe moved the tracked version: %v", got)
	}
	if st := k.CoherenceStats(); st.ProbeErrors != 1 || k.Gen("s") != 0 {
		t.Errorf("probeErrors = %d generation = %d, want 1 and 0", st.ProbeErrors, k.Gen("s"))
	}

	// Recovery sees the accumulated change and invalidates.
	stub.fail = false
	k.Refresh(context.Background())
	if g := k.Gen("s"); g != 1 {
		t.Errorf("post-recovery generation = %d, want 1 (one invalidation)", g)
	}
	if got := tracked(); got != 8 {
		t.Errorf("post-recovery version = %v, want 8", got)
	}
}

// gatedStub is a versioned endpoint whose next version probe can be
// held: armed, it reads the current version, signals read, and answers
// only once gate closes.
type gatedStub struct {
	versionedStub
	mu   sync.Mutex
	gate chan struct{}
	read chan struct{}
}

func (s *gatedStub) arm() {
	s.mu.Lock()
	s.gate, s.read = make(chan struct{}), make(chan struct{})
	s.mu.Unlock()
}

func (s *gatedStub) DataVersion(ctx context.Context) (uint64, error) {
	s.mu.Lock()
	v, gate, read := s.v, s.gate, s.read
	s.gate = nil
	s.mu.Unlock()
	if gate != nil {
		close(read)
		<-gate
	}
	return v, nil
}

// Overlapping refreshes apply in probe issue order. A slow probe that
// read v5 answers after a later probe applied v6: its result is older
// news and must not roll the version back. Applied in arrival order it
// would count three invalidations for one real change (5→6, 6→5, and
// 5→6 again at the next refresh) and, in between, refuse a summary
// stamped with the endpoint's true version.
func TestCoherenceOverlappingRefreshesApplyInIssueOrder(t *testing.T) {
	stub := &gatedStub{versionedStub: versionedStub{name: "s", v: 5}}
	k := federation.NewKnowledge([]endpoint.Endpoint{stub})
	ctx := context.Background()
	k.Refresh(ctx)

	stub.arm()
	gate := stub.gate
	slow := make(chan struct{})
	go func() {
		k.Refresh(ctx) // reads v5, then waits on the gate
		close(slow)
	}()
	<-stub.read
	stub.mu.Lock()
	stub.v = 6
	stub.mu.Unlock()
	k.Refresh(ctx) // issued later, applies v6 first
	if !k.StoreSummary(k.Gen("s"), &stats.Summary{Endpoint: "s", Version: 6, Versioned: true}) {
		t.Fatal("summary store refused")
	}
	close(gate)
	<-slow

	q := federation.Question{EP: stub, Kind: federation.KindAsk, Text: "ASK {}",
		Summary: func(*stats.Summary) (float64, bool) { return 1, true }}
	if _, tier := k.Lookup(&q); tier != federation.TierSummary {
		t.Error("the v6-stamped summary was refused after the slow v5 probe answered")
	}
	if v := k.CoherenceStats().Endpoints[0].Version; v != 6 {
		t.Errorf("tracked version = %d after the slow probe, want 6 (no regression)", v)
	}
	k.Refresh(ctx)
	if st := k.CoherenceStats(); st.Changes != 1 || k.Gen("s") != 1 {
		t.Errorf("changes = %d generation = %d, want 1 and 1 (one real change)", st.Changes, k.Gen("s"))
	}
}

// opaqueCoherenceEndpoint exposes no data version.
type opaqueCoherenceEndpoint struct{}

func (opaqueCoherenceEndpoint) Name() string { return "opaque" }
func (opaqueCoherenceEndpoint) Query(ctx context.Context, q string) (*sparql.Results, error) {
	return &sparql.Results{}, nil
}

// Every method must be safe on a nil store — an engine that retains
// nothing runs without one by passing nil around.
func TestCoherenceNilSafety(t *testing.T) {
	var k *federation.Knowledge
	k.Refresh(context.Background())
	if st := k.CoherenceStats(); st.Probes != 0 || st.Endpoints != nil {
		t.Errorf("nil store stats = %+v", st)
	}
}

// Engine-level churn coherence, enforce mode: after a churn batch on
// one endpoint, the next execution must match the fresh ground truth —
// the version change detected at query start invalidates the stale
// cached state.
func TestEngineChurnInvalidatesEnforce(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	l := New(eps, Config{SubqueryCacheSize: 64})

	if _, err := l.Execute(context.Background(), testfed.QaChain); err != nil {
		t.Fatal(err)
	}
	// Drop MIT's address on EP1. The address subquery is the one the
	// plan retains in the cross-query cache, so without invalidation
	// the cached rows would keep resolving the dead address.
	ep1.ApplyChurn(nil, rdf.Graph{rdf.T(testfed.IRI("MIT"), testfed.IRI("address"), rdf.Literal("XXX"))})

	res, _ := assertMatchesUnion(t, l, []*endpoint.Local{ep1, ep2}, testfed.QaChain)
	if res.Len() != 1 {
		t.Errorf("post-churn rows = %d, want 1 (every MIT row dropped)", res.Len())
	}
	if st := l.CoherenceStats(); st.Changes == 0 {
		t.Error("churn went undetected by the fence")
	}
}
