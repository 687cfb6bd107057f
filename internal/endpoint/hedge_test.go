package endpoint

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lusail/internal/sparql"
	"lusail/internal/trace"
)

// slowFirst answers instantly except for the Nth call (1-based), which
// sleeps until its context dies or the delay elapses.
type slowFirst struct {
	inner   Endpoint
	slowOn  int64
	delay   time.Duration
	calls   atomic.Int64
	aborted atomic.Int64 // slow calls cancelled before finishing
}

func (s *slowFirst) Name() string { return s.inner.Name() }

func (s *slowFirst) Query(ctx context.Context, query string) (*sparql.Results, error) {
	n := s.calls.Add(1)
	if n == s.slowOn {
		t := time.NewTimer(s.delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			s.aborted.Add(1)
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	return s.inner.Query(ctx, query)
}

// hedging is a hedging Client without resilience, its trigger tuned
// per test.
func hedging(inner Endpoint, quantile float64, minSamples int64, minDelay time.Duration) *Client {
	c := NewClient(inner, nil, true)
	c.quantile, c.minSamples, c.minDelay = quantile, minSamples, minDelay
	return c
}

// warm feeds the hedging client enough fast observations to arm its
// latency-quantile trigger.
func warm(t *testing.T, h *Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := h.Query(WithHedging(context.Background()), `ASK { ?s ?p ?o }`); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHedgedBackupWinsAndCancelsLoser(t *testing.T) {
	slow := &slowFirst{inner: NewLocal("ep", testStore()), delay: 5 * time.Second}
	h := hedging(slow, 0.5, 3, time.Millisecond)
	warm(t, h, 3)
	slow.slowOn = slow.calls.Load() + 1 // next primary hangs

	sp := trace.New("query").Root
	ctx := trace.WithSpan(WithHedging(context.Background()), sp)
	start := time.Now()
	res, err := h.Query(ctx, `ASK { ?s ?p ?o }`)
	if err != nil || !res.Ask {
		t.Fatalf("hedged query = %v, %v", res, err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("backup did not rescue the slow primary: took %v", el)
	}
	if got := sp.Int("hedges"); got != 1 {
		t.Errorf("query span saw %d hedges, want 1", got)
	}
	// The losing primary must be cancelled, not left running.
	deadline := time.Now().Add(time.Second)
	for slow.aborted.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if slow.aborted.Load() != 1 {
		t.Error("slow primary was not cancelled after the backup won")
	}
	if st := h.Stats(); st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("stats = %+v, want Hedges/HedgeWins 1", st)
	}
}

func TestHedgedRequiresOptInContext(t *testing.T) {
	slow := &slowFirst{inner: NewLocal("ep", testStore()), delay: 30 * time.Millisecond}
	h := hedging(slow, 0.5, 2, time.Millisecond)
	warm(t, h, 2)
	slow.slowOn = slow.calls.Load() + 1

	// No WithHedging: the slow call just runs to completion unhedged.
	if _, err := h.Query(context.Background(), `ASK { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if h.Stats().Hedges != 0 {
		t.Errorf("hedge launched without context opt-in: %d", h.Stats().Hedges)
	}
}

func TestHedgedUnarmedBelowMinSamples(t *testing.T) {
	slow := &slowFirst{inner: NewLocal("ep", testStore()), delay: 30 * time.Millisecond}
	h := hedging(slow, 0.5, 50, time.Millisecond)
	warm(t, h, 3) // far below MinSamples
	slow.slowOn = slow.calls.Load() + 1
	if _, err := h.Query(WithHedging(context.Background()), `ASK { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if h.Stats().Hedges != 0 {
		t.Errorf("hedge launched before the quantile estimate armed: %d", h.Stats().Hedges)
	}
}

func TestHedgedFastPrimaryFailureSkipsBackup(t *testing.T) {
	// A primary that fails immediately (not slowly) must surface its
	// error without burning a backup attempt.
	faulty := NewFaulty(NewLocal("ep", testStore()), FaultConfig{Down: true})
	h := hedging(faulty, 0.5, 1, time.Hour)
	// Arm with one observation through a non-faulty phase: hedging needs
	// samples, but Down fails before observing — force buckets directly
	// by observing a fast latency.
	h.attempts.Observe(0, nil)
	_, err := h.Query(WithHedging(context.Background()), `ASK { ?s ?p ?o }`)
	if err == nil {
		t.Fatal("down endpoint answered")
	}
	if h.Stats().Hedges != 0 {
		t.Errorf("backup launched for a fast-failing primary: %d", h.Stats().Hedges)
	}
}

// slowFail fails every request, but only after a delay long enough to
// outlive the hedge trigger.
type slowFail struct{ delay time.Duration }

func (s slowFail) Name() string { return "ep" }
func (s slowFail) Query(ctx context.Context, query string) (*sparql.Results, error) {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.C:
	}
	return nil, Transient(errors.New("slow failure"))
}

func TestHedgedBothAttemptsFailReturnsFirstError(t *testing.T) {
	h := hedging(slowFail{delay: 20 * time.Millisecond}, 0.5, 1, time.Millisecond)
	h.attempts.Observe(0, nil)
	_, err := h.Query(WithHedging(context.Background()), `ASK { ?s ?p ?o }`)
	if err == nil {
		t.Fatal("both attempts failed but Query returned success")
	}
	var te *TransientError
	if !errors.As(err, &te) {
		t.Errorf("error lost its transient wrapper: %v", err)
	}
	if st := h.Stats(); st.Hedges != 1 || st.HedgeWins != 0 {
		t.Errorf("hedges = %d, wins = %d, want 1 and 0 for a failed backup", st.Hedges, st.HedgeWins)
	}
}

func TestBreakerStatusesWalkThroughHedged(t *testing.T) {
	// A hedging client with a resilience config reports its breaker.
	rc := DefaultResilience()
	eps := []Endpoint{NewClient(NewLocal("ep", testStore()), &rc, true)}
	sts := BreakerStatuses(eps)
	if len(sts) != 1 || sts[0].Name != "ep" {
		t.Fatalf("breaker statuses of a hedging client = %+v", sts)
	}
}
