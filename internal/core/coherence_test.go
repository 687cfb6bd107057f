package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
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

func TestCoherenceRefreshDetectsChange(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	var invalidated []string
	c := NewCoherence([]endpoint.Endpoint{ep1, ep2}, 0,
		func(name string) { invalidated = append(invalidated, name) })

	// First probe establishes the baseline; nothing has "changed" yet.
	c.Refresh(context.Background())
	if len(invalidated) != 0 {
		t.Fatalf("baseline probe invalidated %v", invalidated)
	}
	st := c.Stats()
	if st.Probes != 2 || st.Changes != 0 {
		t.Fatalf("baseline stats = %+v", st)
	}

	// A churn batch on one endpoint: exactly that endpoint invalidates.
	ep1.ApplyChurn(rdf.Graph{rdf.T(testfed.IRI("new"), testfed.IRI("p"), rdf.Literal("v"))}, nil)
	c.Refresh(context.Background())
	if !reflect.DeepEqual(invalidated, []string{ep1.Name()}) {
		t.Errorf("invalidated %v, want [%s]", invalidated, ep1.Name())
	}
	if st := c.Stats(); st.Changes != 1 {
		t.Errorf("changes = %d, want 1", st.Changes)
	}

	// Unchanged versions on later refreshes fire nothing.
	c.Refresh(context.Background())
	if len(invalidated) != 1 {
		t.Errorf("steady-state refresh re-invalidated: %v", invalidated)
	}
}

// The window amortizes probes: within it, Refresh is free; past it,
// endpoints are re-probed.
func TestCoherenceWindowAmortizesProbes(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	c := NewCoherence([]endpoint.Endpoint{ep1, ep2}, time.Minute, nil)
	now := time.Unix(5000, 0)
	c.now = func() time.Time { return now }

	c.Refresh(context.Background())
	c.Refresh(context.Background())
	if st := c.Stats(); st.Probes != 2 {
		t.Fatalf("probes within the window = %d, want 2 (one per endpoint)", st.Probes)
	}
	now = now.Add(time.Minute)
	c.Refresh(context.Background())
	if st := c.Stats(); st.Probes != 4 {
		t.Errorf("probes after the window lapsed = %d, want 4", st.Probes)
	}
}

// A probe failure is conservative: the endpoint keeps its last tracked
// version (entries stamped with it stay servable), the error is
// counted, and no invalidation fires.
func TestCoherenceProbeErrorKeepsVersion(t *testing.T) {
	stub := &versionedStub{name: "s", v: 7}
	fired := 0
	c := NewCoherence([]endpoint.Endpoint{stub}, 0, func(string) { fired++ })
	c.Refresh(context.Background())
	if got, _ := c.Version("s"); got != 7 {
		t.Fatalf("tracked version = %v, want 7", got)
	}

	stub.fail = true
	stub.v = 8 // the bump is invisible while probes fail
	c.Refresh(context.Background())
	if got, _ := c.Version("s"); got != 7 {
		t.Errorf("failed probe moved the tracked version: %v", got)
	}
	st := c.Stats()
	if st.ProbeErrors != 1 || fired != 0 {
		t.Errorf("probeErrors = %d fired = %d, want 1 and 0", st.ProbeErrors, fired)
	}

	// Recovery sees the accumulated change and invalidates.
	stub.fail = false
	c.Refresh(context.Background())
	if fired != 1 {
		t.Errorf("post-recovery refresh fired %d invalidations, want 1", fired)
	}
	if got, _ := c.Version("s"); got != 8 {
		t.Errorf("post-recovery version = %v, want 8", got)
	}
}

func TestCoherenceVerdict(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}

	enforce := NewCoherence(eps, 0, nil)
	if v := enforce.Verdict(); v != StalenessUnverified {
		t.Errorf("unprobed fence verdict = %q, want %q (nothing tracked yet)", v, StalenessUnverified)
	}
	enforce.Refresh(context.Background())
	if v := enforce.Verdict(); v != StalenessFresh {
		t.Errorf("window-0 verdict = %q, want %q", v, StalenessFresh)
	}

	windowed := NewCoherence(eps, time.Minute, nil)
	windowed.Refresh(context.Background())
	if v := windowed.Verdict(); v != StalenessBounded {
		t.Errorf("windowed verdict = %q, want %q", v, StalenessBounded)
	}

	// One version-less endpoint downgrades the verdict.
	mixed := NewCoherence([]endpoint.Endpoint{ep1, opaqueCoherenceEndpoint{}}, 0, nil)
	mixed.Refresh(context.Background())
	if v := mixed.Verdict(); v != StalenessUnverified {
		t.Errorf("mixed verdict = %q, want %q", v, StalenessUnverified)
	}

	// No fence: the engine retains nothing, so nothing is reused.
	var nilFence *Coherence
	if v := nilFence.Verdict(); v != StalenessFresh {
		t.Errorf("nil fence verdict = %q, want %q", v, StalenessFresh)
	}
}

// opaqueCoherenceEndpoint exposes no data version.
type opaqueCoherenceEndpoint struct{}

func (opaqueCoherenceEndpoint) Name() string { return "opaque" }
func (opaqueCoherenceEndpoint) Query(ctx context.Context, q string) (*sparql.Results, error) {
	return &sparql.Results{}, nil
}

// Every method must be safe on a nil fence — an engine that retains
// nothing runs without one by passing nil around.
func TestCoherenceNilSafety(t *testing.T) {
	var c *Coherence
	c.Refresh(context.Background())
	if _, ok := c.Version("a"); ok {
		t.Error("nil fence returned a version")
	}
	if st := c.Stats(); st.Probes != 0 {
		t.Errorf("nil fence stats = %+v", st)
	}
}

// Engine-level churn coherence, enforce mode: after a churn batch on
// one endpoint, the next execution must match the fresh ground truth —
// the version change detected at query start invalidates the stale
// cached state — and the query's staleness verdict stays "fresh".
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

	res := assertMatchesUnion(t, l, []*endpoint.Local{ep1, ep2}, testfed.QaChain)
	if res.Len() != 1 {
		t.Errorf("post-churn rows = %d, want 1 (every MIT row dropped)", res.Len())
	}
	m := l.LastMetrics()
	if m.Staleness != StalenessFresh {
		t.Errorf("staleness verdict = %q, want %q", m.Staleness, StalenessFresh)
	}
	if st := l.CoherenceStats(); st.Changes == 0 {
		t.Error("churn went undetected by the fence")
	}
}

// Engine-level churn inside the coherence window: the fence does not
// re-probe, so the same churn goes unseen — the repeat serves the
// pre-churn rows from cache, nothing is fenced, and the verdict says
// reuse was only bounded by the window. This is the control behavior
// the chaos harness's window-blind pass relies on.
func TestEngineChurnWithinWindowServesStale(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	l := New(eps, Config{SubqueryCacheSize: 64, CoherenceWindow: time.Hour})

	before, err := l.Execute(context.Background(), testfed.QaChain)
	if err != nil {
		t.Fatal(err)
	}
	ep1.ApplyChurn(nil, rdf.Graph{rdf.T(testfed.IRI("MIT"), testfed.IRI("address"), rdf.Literal("XXX"))})

	after, m, err := l.ExecuteMetrics(context.Background(), testfed.QaChain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(testfed.Canon(after), testfed.Canon(before)) {
		t.Errorf("churn inside the window did not serve the stale cached rows.\n got: %v\nwant: %v",
			testfed.Canon(after), testfed.Canon(before))
	}
	if m.Staleness != StalenessBounded {
		t.Errorf("staleness verdict = %q, want %q", m.Staleness, StalenessBounded)
	}
	if st := l.CoherenceStats(); st.Fenced != 0 || st.Changes != 0 {
		t.Errorf("fence saw churn inside its window: changes %d, fenced %d", st.Changes, st.Fenced)
	}
}
