package endpoint

import (
	"context"
	"testing"
	"time"
)

// TestClientLayering: a hedged call over a flaky endpoint runs the
// layers in order. The primary attempt hangs; the backup attempt runs
// its own retry loop through a transient failure and wins. The call is
// one whole-call latency sample, the cancelled primary feeds no hedge
// sample, a client without resilience reports no breaker, and version
// probes step through the client and the fault injector.
func TestClientLayering(t *testing.T) {
	local := NewLocal("ep", testStore())
	// Call 1 (primary) hangs until cancelled; call 2 (the backup's first
	// try) fails transiently; call 3 (the backup's retry) answers.
	inner := &slowFirst{inner: NewFaulty(local, FaultConfig{FailFirst: 1}), slowOn: 1, delay: 5 * time.Second}
	rc := quickResilience()
	c := NewClient(inner, &rc, true)
	c.minSamples = 1
	c.attemptBuckets[0].Add(1) // armed: the trigger fires after minDelay

	fc := new(FaultCounters)
	res, err := c.Query(WithFaultCounters(WithHedging(context.Background()), fc), `ASK { ?s ?p ?o }`)
	if err != nil || !res.Ask {
		t.Fatalf("hedged query = %v, %v", res, err)
	}
	st := c.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("hedges = %d, wins = %d, want 1/1", st.Hedges, st.HedgeWins)
	}
	if st.Retries != 1 || fc.Retries() != 1 || fc.Hedges() != 1 {
		t.Errorf("retries = %d (query counters %d), hedges counted %d; want the backup's own single retry and one hedge",
			st.Retries, fc.Retries(), fc.Hedges())
	}
	if got := st.Latency.Count(); got != 1 {
		t.Errorf("whole-call latency samples = %d, want 1 per call", got)
	}
	var attempts int64
	for i := range c.attemptBuckets {
		attempts += c.attemptBuckets[i].Load()
	}
	if attempts != 2 {
		t.Errorf("hedge histogram holds %d samples, want 2 (the seed and the winning backup)", attempts)
	}

	plain := NewClient(NewLocal("plain", testStore()), nil, true)
	if sts := BreakerStatuses([]Endpoint{plain, c}); len(sts) != 1 || sts[0].Name != "ep" {
		t.Errorf("breaker statuses = %+v, want only the resilient client", sts)
	}

	layered := NewClient(NewFaulty(local, FaultConfig{Down: true}), &rc, false)
	local.BumpDataVersion()
	if v, ok, err := DataVersionOf(context.Background(), layered); err != nil || !ok || v != 2 {
		t.Errorf("DataVersionOf(Client → Faulty → Local) = (%d, %v, %v), want (2, true, nil)", v, ok, err)
	}
}
