package endpoint

import (
	"context"
	"testing"
	"time"

	"lusail/internal/trace"
)

// TestClientLayering: a call over a flaky endpoint runs the retry loop
// under whole-call instrumentation. The first try fails transiently and
// the retry answers; the retry lands on the call's span, and the call
// is one whole-call latency sample. A client without resilience reports
// no breaker, and version probes step through the client and the fault
// injector.
func TestClientLayering(t *testing.T) {
	local := NewLocal("ep", testStore())
	rc := quickResilience()
	c := NewClient(NewFaulty(local, FaultConfig{FailFirst: 1}), &rc)

	sp := trace.New("query").Root
	res, err := c.Query(trace.WithSpan(context.Background(), sp), `ASK { ?s ?p ?o }`)
	if err != nil || !res.Ask {
		t.Fatalf("query = %v, %v", res, err)
	}
	st := c.Stats()
	if st.Retries != 1 || sp.Int("retries") != 1 {
		t.Errorf("retries = %d (call span %d), want the single retry, on the span too", st.Retries, sp.Int("retries"))
	}
	if got := st.Latency.Count(); got != 1 {
		t.Errorf("whole-call latency samples = %d, want 1 per call", got)
	}

	plain := NewClient(NewLocal("plain", testStore()), nil)
	if sts := BreakerStatuses([]Endpoint{plain, c}); len(sts) != 1 || sts[0].Name != "ep" {
		t.Errorf("breaker statuses = %+v, want only the resilient client", sts)
	}

	layered := NewClient(NewFaulty(local, FaultConfig{Down: true}), &rc)
	local.BumpDataVersion()
	if v, ok, err := DataVersionOf(context.Background(), layered); err != nil || !ok || v != 2 {
		t.Errorf("DataVersionOf(Client → Faulty → Local) = (%d, %v, %v), want (2, true, nil)", v, ok, err)
	}
}

// A retry's backoff is a function of the seed, the endpoint, the query
// and the attempt: the requests a client served before do not move it,
// it lies in [d/2, d] for the attempt's exponential step d, and another
// query draws another jitter.
func TestBackoffJitterIsReproducible(t *testing.T) {
	rc := ResilienceConfig{MaxRetries: 8, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, Seed: 3}
	const q = `ASK { ?s ?p ?o }`
	fresh := NewClient(NewLocal("ep", testStore()), &rc)
	want := make([]time.Duration, 6)
	for a := range want {
		want[a] = fresh.backoff(q, a)
	}

	// Another client of the same endpoint first retries other queries
	// through a fault injector, then draws the same backoffs.
	used := NewClient(NewFaulty(NewLocal("ep", testStore()), FaultConfig{FailFirst: 3}), &rc)
	for _, other := range []string{`ASK { ?s a ?o }`, `SELECT * WHERE { ?s ?p ?o }`} {
		if _, err := used.Query(context.Background(), other); err != nil {
			t.Fatal(err)
		}
	}
	if used.Stats().Retries == 0 {
		t.Fatal("the warm-up issued no retries")
	}
	differs := false
	for a, w := range want {
		if got := used.backoff(q, a); got != w {
			t.Errorf("attempt %d: backoff %v after other requests, %v on a fresh client", a, got, w)
		}
		d := min(rc.BaseBackoff<<a, rc.MaxBackoff)
		if w < d/2 || w > d {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", a, w, d/2, d)
		}
		differs = differs || fresh.backoff(`ASK { ?s a ?o }`, a) != w
	}
	if !differs {
		t.Error("another query drew the same jitter on every attempt")
	}
}
