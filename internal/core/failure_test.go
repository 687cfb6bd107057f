package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"lusail/internal/benchdata/lubm"
	"lusail/internal/endpoint"
	"lusail/internal/store"
	"lusail/internal/testfed"
)

// Failure-injection tests: a federated engine must surface endpoint
// failures as errors, never as silently incomplete results.

func TestLusailSurfacesSourceSelectionFailure(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	flaky := endpoint.NewFaulty(ep2, endpoint.FaultConfig{FailFirst: 1})
	l := New([]endpoint.Endpoint{ep1, flaky}, Config{})
	_, err := l.Execute(context.Background(), testfed.QaChain)
	if err == nil {
		t.Fatal("failure during source selection went unnoticed")
	}
	if !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("error does not carry the cause: %v", err)
	}
}

func TestLusailSurfacesExecutionFailure(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	// ASK/check/count queries pass; only the address data subquery
	// (projection "SELECT ?A ?U") fails.
	flaky := endpoint.NewFaulty(ep2, endpoint.FaultConfig{FailOn: "SELECT ?A ?U"})
	l := New([]endpoint.Endpoint{ep1, flaky}, Config{})
	_, err := l.Execute(context.Background(), testfed.QaChain)
	if err == nil {
		t.Fatal("failure during execution went unnoticed")
	}
}

func TestLusailRecoversAfterTransientFailure(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	flaky := endpoint.NewFaulty(ep2, endpoint.FaultConfig{FailFirst: 1})
	l := New([]endpoint.Endpoint{ep1, flaky}, Config{})
	ctx := context.Background()
	if _, err := l.Execute(ctx, testfed.QaChain); err == nil {
		t.Fatal("first run should fail")
	}
	// The transient fault is gone; with caches partially warm the
	// query must now succeed and be correct.
	res, err := l.Execute(ctx, testfed.QaChain)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if res.Len() == 0 {
		t.Error("recovered run returned no rows")
	}
}

func TestBatchIsolatesPerQueryFailures(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, ep2}
	l := New(eps, Config{SubqueryCacheSize: 64})
	batch := runConcurrently(l, []string{
		testfed.QaChain,
		`SELECT * WHERE { ?s <http://ex/advisor> ?p FILTER NOT EXISTS { ?x <http://ex/a> ?y } FILTER NOT EXISTS { ?q <http://ex/b> ?z } }`,
	})
	if batch[0].err != nil {
		t.Errorf("healthy query failed: %v", batch[0].err)
	}
}

func TestLusailRetriesTransientFailures(t *testing.T) {
	// With resilience enabled the same FailFirst fault
	// that sinks TestLusailSurfacesSourceSelectionFailure is healed by
	// retries and the query succeeds on the first Execute.
	ep1, ep2 := testfed.Universities()
	faulty := endpoint.NewFaulty(ep2, endpoint.FaultConfig{FailFirst: 2})
	rc := endpoint.ResilienceConfig{
		MaxRetries:  3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	}
	l := New([]endpoint.Endpoint{ep1, faulty}, Config{Resilience: &rc})
	res, m, _, err := l.ExecuteStreamTraced(context.Background(), testfed.QaChain, nil)
	if err != nil {
		t.Fatalf("retries did not heal transient faults: %v", err)
	}
	if res.Len() == 0 {
		t.Error("healed run returned no rows")
	}
	if m.Retries == 0 {
		t.Errorf("metrics did not count the retries: %+v", m)
	}
}

func TestLusailCircuitBreakerFailsFast(t *testing.T) {
	// A permanently failing endpoint opens its breaker during the first
	// Execute; the second Execute is rejected locally without new
	// traffic to the dead endpoint.
	ep1, ep2 := testfed.Universities()
	faulty := endpoint.NewFaulty(ep2, endpoint.FaultConfig{ErrorRate: 1})
	rc := endpoint.ResilienceConfig{
		MaxRetries:      1,
		BaseBackoff:     time.Millisecond,
		BreakerFailures: 1,
		BreakerCooldown: time.Hour,
	}
	l := New([]endpoint.Endpoint{ep1, faulty}, Config{Resilience: &rc})
	ctx := context.Background()
	if _, err := l.Execute(ctx, testfed.QaChain); err == nil {
		t.Fatal("dead endpoint went unnoticed")
	}
	before := faulty.Requests()
	_, m, _, err := l.ExecuteStreamTraced(ctx, testfed.QaChain, nil)
	if err == nil {
		t.Fatal("open breaker did not surface an error")
	}
	if !errors.Is(err, endpoint.ErrCircuitOpen) {
		t.Errorf("error does not carry ErrCircuitOpen: %v", err)
	}
	if got := faulty.Requests(); got != before {
		t.Errorf("open breaker let %d requests through to the dead endpoint", got-before)
	}
	if m.BreakerOpens == 0 {
		t.Errorf("metrics did not count the breaker rejections: %+v", m)
	}
}

func TestLusailTimesOutHungEndpoint(t *testing.T) {
	// A hung endpoint must fail within the configured per-attempt
	// timeout budget, not stall the whole query forever.
	ep1, ep2 := testfed.Universities()
	faulty := endpoint.NewFaulty(ep2, endpoint.FaultConfig{Hang: true})
	rc := endpoint.ResilienceConfig{
		Timeout:     50 * time.Millisecond,
		MaxRetries:  1,
		BaseBackoff: time.Millisecond,
	}
	l := New([]endpoint.Endpoint{ep1, faulty}, Config{Resilience: &rc})
	start := time.Now()
	_, err := l.Execute(context.Background(), testfed.QaChain)
	if err == nil {
		t.Fatal("hung endpoint went unnoticed")
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Errorf("query against a hung endpoint took %v, want bounded by timeouts", el)
	}
}

func TestLusailCancelsSiblingsOnFailure(t *testing.T) {
	// During phase 1 both endpoints evaluate the address subquery in
	// parallel; EP1 fails it while EP2 hangs. Fail-fast cancellation
	// must interrupt EP2 instead of waiting it out. EP1 is slowed so
	// EP2 deterministically reaches its hang before EP1's failure
	// cancels the phase (without the delay the failure can win the
	// race and short-circuit EP2's task before dispatch).
	ep1, ep2 := testfed.Universities()
	f1 := endpoint.NewFaulty(ep1, endpoint.FaultConfig{FailOn: "SELECT ?A ?U", SlowBy: 10 * time.Millisecond})
	f2 := endpoint.NewFaulty(ep2, endpoint.FaultConfig{HangOn: "SELECT ?A ?U"})
	l := New([]endpoint.Endpoint{f1, f2}, Config{})
	start := time.Now()
	_, err := l.Execute(context.Background(), testfed.QaChain)
	if err == nil {
		t.Fatal("execution failure went unnoticed")
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Errorf("sibling hang was not cancelled: query took %v", el)
	}
	if f2.Injected() == 0 {
		t.Error("test fixture never reached the hanging subquery on EP2")
	}
}

// TestLusailFaultyLUBMAcceptance is the issue's acceptance scenario:
// deterministic 20% transient faults over a 4-endpoint LUBM federation.
// With retries the result multiset matches the fault-free run; without
// retries the engine surfaces an error rather than a partial answer.
func TestLusailFaultyLUBMAcceptance(t *testing.T) {
	build := func(wrap func([]endpoint.Endpoint) []endpoint.Endpoint, cfg Config) *Lusail {
		graphs := lubm.Generate(lubm.DefaultConfig(4))
		eps := make([]endpoint.Endpoint, len(graphs))
		for i, g := range graphs {
			st := store.New()
			for _, tr := range g {
				st.Add(tr)
			}
			eps[i] = endpoint.NewLocal(fmt.Sprintf("lubm%d", i), st)
		}
		if wrap != nil {
			eps = wrap(eps)
		}
		return New(eps, cfg)
	}
	ctx := context.Background()
	faulty := func(eps []endpoint.Endpoint) []endpoint.Endpoint {
		return endpoint.WrapFaulty(eps, endpoint.FaultConfig{Seed: 42, ErrorRate: 0.2})
	}
	rc := endpoint.ResilienceConfig{
		MaxRetries:  3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
	}
	for name, q := range lubm.Queries {
		// Ground truth from a fault-free federation.
		want, err := build(nil, Config{}).Execute(ctx, q)
		if err != nil {
			t.Fatalf("%s fault-free: %v", name, err)
		}
		// 20% faults + retries: same multiset.
		got, err := build(faulty, Config{Resilience: &rc}).Execute(ctx, q)
		if err != nil {
			t.Errorf("%s with retries: %v", name, err)
		} else if !reflect.DeepEqual(testfed.Canon(want), testfed.Canon(got)) {
			t.Errorf("%s: results under faults+retries differ from fault-free run", name)
		}
		// 20% faults, no retries: the error must surface. (With the
		// deterministic seed every query trips at least one fault.)
		if _, err := build(faulty, Config{}).Execute(ctx, q); err == nil {
			t.Errorf("%s without retries returned success despite injected faults", name)
		}
	}
}
