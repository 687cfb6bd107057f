package endpoint

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lusail/internal/sparql"
	"lusail/internal/trace"
)

// resilient is a Client with cfg's retry loop and breaker.
func resilient(inner Endpoint, cfg ResilienceConfig) *Client {
	return NewClient(inner, &cfg)
}

func quickResilience() ResilienceConfig {
	return ResilienceConfig{
		MaxRetries:  3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	}
}

func TestResilientRetriesTransientUntilSuccess(t *testing.T) {
	faulty := NewFaulty(NewLocal("ep", testStore()), FaultConfig{FailFirst: 2})
	r := resilient(faulty, quickResilience())
	res, err := r.Query(context.Background(), `ASK { ?s ?p ?o }`)
	if err != nil {
		t.Fatalf("query did not recover: %v", err)
	}
	if !res.Ask {
		t.Error("wrong result after recovery")
	}
	if got := faulty.Requests(); got != 3 {
		t.Errorf("inner endpoint saw %d requests, want 3 (2 failures + success)", got)
	}
	if got := r.Stats().Retries; got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	// Stats merge the client's counters with the inner endpoint's:
	// the store-backed endpoint saw only the one delegated request,
	// the two injected faults never reached it.
	if st := r.Stats(); st.Retries != 2 || st.Requests != 1 {
		t.Errorf("stats = %+v, want Retries 2 / Requests 1", st)
	}
}

func TestResilientExhaustsRetryBudget(t *testing.T) {
	faulty := NewFaulty(NewLocal("ep", testStore()), FaultConfig{FailFirst: 100})
	cfg := quickResilience()
	cfg.MaxRetries = 2
	r := resilient(faulty, cfg)
	if _, err := r.Query(context.Background(), `ASK { ?s ?p ?o }`); err == nil {
		t.Fatal("query succeeded with exhausted budget")
	}
	if got := faulty.Requests(); got != 3 {
		t.Errorf("inner endpoint saw %d requests, want 3 (1 + 2 retries)", got)
	}
}

func TestResilientDoesNotRetryPermanentErrors(t *testing.T) {
	faulty := NewFaulty(NewLocal("ep", testStore()), FaultConfig{FailOn: "ASK"})
	r := resilient(faulty, quickResilience())
	if _, err := r.Query(context.Background(), `ASK { ?s ?p ?o }`); err == nil {
		t.Fatal("permanent failure went unnoticed")
	}
	if got := faulty.Requests(); got != 1 {
		t.Errorf("inner endpoint saw %d requests, want 1 (no retries on permanent errors)", got)
	}
}

func TestResilientTimesOutHungEndpoint(t *testing.T) {
	faulty := NewFaulty(NewLocal("ep", testStore()), FaultConfig{Hang: true})
	cfg := quickResilience()
	cfg.Timeout = 30 * time.Millisecond
	cfg.MaxRetries = 1
	r := resilient(faulty, cfg)
	start := time.Now()
	_, err := r.Query(context.Background(), `ASK { ?s ?p ?o }`)
	if err == nil {
		t.Fatal("hung endpoint did not error")
	}
	if !Retryable(err) {
		t.Errorf("timeout should classify as retryable: %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("took %v, want ~2×30ms (bounded by per-attempt timeout)", el)
	}
	if got := r.Stats().Timeouts; got != 2 {
		t.Errorf("timeouts = %d, want 2 (initial attempt + 1 retry)", got)
	}
}

func TestResilientHonoursCallerCancellation(t *testing.T) {
	faulty := NewFaulty(NewLocal("ep", testStore()), FaultConfig{Hang: true})
	cfg := quickResilience()
	cfg.Timeout = time.Minute
	r := resilient(faulty, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.Query(ctx, `ASK { ?s ?p ?o }`)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if Retryable(err) {
		t.Errorf("caller-deadline error must not be retryable: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("cancellation did not interrupt the hung request")
	}
}

func TestCircuitBreakerOpenHalfOpenClosed(t *testing.T) {
	// The inner endpoint fails its first 4 requests, then recovers.
	faulty := NewFaulty(NewLocal("ep", testStore()), FaultConfig{FailFirst: 4})
	cfg := ResilienceConfig{
		BreakerFailures: 3,
		BreakerCooldown: 40 * time.Millisecond,
	}
	r := resilient(faulty, cfg)
	ctx := context.Background()
	q := `ASK { ?s ?p ?o }`

	// Closed: three consecutive failures reach the threshold.
	for i := 0; i < 3; i++ {
		if _, err := r.Query(ctx, q); err == nil {
			t.Fatalf("call %d should fail", i)
		}
	}
	// Open: rejected locally, the endpoint is not touched.
	if _, err := r.Query(ctx, q); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker returned %v, want ErrCircuitOpen", err)
	}
	if got := faulty.Requests(); got != 3 {
		t.Errorf("inner saw %d requests, want 3 (open breaker fails fast)", got)
	}
	if got := r.Stats().BreakerOpens; got != 1 {
		t.Errorf("breaker fast-fails = %d, want 1", got)
	}

	// Half-open after the cooldown: one probe goes through and fails
	// (4th injected failure), re-opening the circuit.
	time.Sleep(50 * time.Millisecond)
	if _, err := r.Query(ctx, q); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("half-open probe should reach the endpoint and fail, got %v", err)
	}
	if got := faulty.Requests(); got != 4 {
		t.Errorf("inner saw %d requests, want 4 (single half-open probe)", got)
	}
	if _, err := r.Query(ctx, q); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("re-opened breaker returned %v, want ErrCircuitOpen", err)
	}

	// Half-open again: the endpoint has recovered, the probe succeeds
	// and closes the circuit for good.
	time.Sleep(50 * time.Millisecond)
	if _, err := r.Query(ctx, q); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if _, err := r.Query(ctx, q); err != nil {
		t.Fatalf("closed breaker rejected a request: %v", err)
	}
	if got := faulty.Requests(); got != 6 {
		t.Errorf("inner saw %d requests, want 6", got)
	}
}

func TestBreakerStateReadsHalfOpenOnceCooldownElapses(t *testing.T) {
	// The reported state moves with the clock, not with traffic: an
	// open breaker past its cooldown reads half-open before any request
	// arrives to probe it.
	r := resilient(NewFaulty(NewLocal("ep", testStore()), FaultConfig{Down: true}), ResilienceConfig{
		BreakerFailures: 1,
		BreakerCooldown: time.Minute,
	})
	now := time.Unix(1000, 0)
	r.brk.now = func() time.Time { return now }
	if _, err := r.Query(context.Background(), `ASK { ?s ?p ?o }`); err == nil {
		t.Fatal("down endpoint answered")
	}
	if got := r.BreakerState(); got != BreakerOpen {
		t.Fatalf("state after the tripping failure = %v, want open", got)
	}
	now = now.Add(time.Minute - time.Nanosecond)
	if got := r.BreakerState(); got != BreakerOpen {
		t.Fatalf("state inside the cooldown = %v, want open", got)
	}
	now = now.Add(time.Nanosecond)
	if got := r.BreakerState(); got != BreakerHalfOpen {
		t.Fatalf("state once the cooldown elapsed = %v, want half-open", got)
	}
}

func TestBreakerProbePermanentErrorClosesCircuit(t *testing.T) {
	// Open the breaker with transient failures, then have the endpoint
	// answer the half-open probe with a permanent (non-retryable)
	// error. A permanent answer is still an answer: the probe must
	// resolve — the endpoint is alive — instead of leaking the probe
	// slot and rejecting every future request with ErrCircuitOpen.
	faulty := NewFaulty(NewLocal("ep", testStore()), FaultConfig{FailFirst: 3, FailOn: "ASK"})
	r := resilient(faulty, ResilienceConfig{
		BreakerFailures: 3,
		BreakerCooldown: 20 * time.Millisecond,
	})
	ctx := context.Background()
	q := `ASK { ?s ?p ?o }`
	for i := 0; i < 3; i++ {
		if _, err := r.Query(ctx, q); err == nil {
			t.Fatalf("call %d should fail", i)
		}
	}
	if _, err := r.Query(ctx, q); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker returned %v, want ErrCircuitOpen", err)
	}
	time.Sleep(30 * time.Millisecond)
	// The probe reaches the endpoint and gets its permanent error.
	if _, err := r.Query(ctx, q); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("half-open probe returned %v, want the endpoint's permanent error", err)
	}
	// The probe resolved and closed the circuit: the next request goes
	// straight through to the endpoint, no cooldown needed.
	if _, err := r.Query(ctx, q); errors.Is(err, ErrCircuitOpen) {
		t.Fatal("breaker stuck half-open after a permanent-error probe")
	}
	if got := faulty.Requests(); got != 5 {
		t.Errorf("inner saw %d requests, want 5 (3 transient + probe + follow-up)", got)
	}
}

func TestBreakerProbeCancelReleasesSlot(t *testing.T) {
	// Cancel a half-open probe mid-flight (hung endpoint, caller-side
	// deadline). The cancelled probe proves nothing, but it must free
	// the probe slot so the next request can probe — not leave the
	// breaker stuck half-open rejecting everything forever.
	faulty := NewFaulty(NewLocal("ep", testStore()), FaultConfig{FailFirst: 3, HangOn: "HANGME"})
	r := resilient(faulty, ResilienceConfig{
		BreakerFailures: 3,
		BreakerCooldown: 10 * time.Millisecond,
	})
	q := `ASK { ?s ?p ?o }`
	for i := 0; i < 3; i++ {
		if _, err := r.Query(context.Background(), q); err == nil {
			t.Fatalf("call %d should fail", i)
		}
	}
	time.Sleep(20 * time.Millisecond)
	cctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := r.Query(cctx, `ASK { ?s ?p ?o } # HANGME`); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled probe returned %v, want the caller's deadline error", err)
	}
	// The slot was released: the next request probes the (recovered)
	// endpoint immediately and closes the circuit.
	if _, err := r.Query(context.Background(), q); err != nil {
		t.Fatalf("probe after a cancelled probe returned %v, want success", err)
	}
}

// slowErrEndpoint ignores its context, sleeps, and returns a fixed
// error — modelling a genuine endpoint error racing the per-attempt
// deadline.
type slowErrEndpoint struct {
	d   time.Duration
	err error
}

func (e *slowErrEndpoint) Name() string { return "slow-err" }

func (e *slowErrEndpoint) Query(ctx context.Context, query string) (*sparql.Results, error) {
	time.Sleep(e.d)
	return nil, e.err
}

func TestAttemptTimeoutDoesNotMaskRacingError(t *testing.T) {
	// The endpoint returns a permanent 404 just after the per-attempt
	// deadline expires. The real error must surface (no retry, no
	// timeout reclassification), not be rewritten into a transient
	// timeout merely because the attempt context had expired.
	inner := &slowErrEndpoint{d: 30 * time.Millisecond, err: &HTTPError{Endpoint: "slow-err", Status: 404, Body: "gone"}}
	cfg := quickResilience()
	cfg.Timeout = 5 * time.Millisecond
	r := resilient(inner, cfg)
	_, err := r.Query(context.Background(), `ASK { ?s ?p ?o }`)
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != 404 {
		t.Fatalf("got %v, want the endpoint's HTTP 404", err)
	}
	if got := r.Stats().Timeouts; got != 0 {
		t.Errorf("timeouts = %d, want 0 (error was not a deadline expiry)", got)
	}
	if got := r.Stats().Retries; got != 0 {
		t.Errorf("retries = %d, want 0 (permanent error must not retry)", got)
	}
}

func TestFaultEventsAttributePerCall(t *testing.T) {
	// The span riding each call's context sees only that call's events
	// even though the endpoint totals are shared.
	faulty := NewFaulty(NewLocal("ep", testStore()), FaultConfig{FailFirst: 2})
	r := resilient(faulty, quickResilience())
	sp1 := trace.New("query").Root
	if _, err := r.Query(trace.WithSpan(context.Background(), sp1), `ASK { ?s ?p ?o }`); err != nil {
		t.Fatalf("first call did not recover: %v", err)
	}
	sp2 := trace.New("query").Root
	if _, err := r.Query(trace.WithSpan(context.Background(), sp2), `ASK { ?s ?p ?o }`); err != nil {
		t.Fatalf("second call failed: %v", err)
	}
	if got := sp1.Int("retries"); got != 2 {
		t.Errorf("first call's span saw %d retries, want 2", got)
	}
	if got := sp2.Int("retries"); got != 0 {
		t.Errorf("second call's span saw %d retries, want 0", got)
	}
	if got := r.Stats().Retries; got != 2 {
		t.Errorf("endpoint totals saw %d retries, want 2", got)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{Transient(fmt.Errorf("boom")), true},
		{fmt.Errorf("wrapped: %w", Transient(fmt.Errorf("boom"))), true},
		{fmt.Errorf("plain failure"), false},
		{&ParseError{Err: fmt.Errorf("syntax")}, false},
		{&HTTPError{Status: 500}, true},
		{&HTTPError{Status: 503}, true},
		{&HTTPError{Status: 400}, false},
		{&HTTPError{Status: 404}, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false}, // bare = the caller's own deadline
		{fmt.Errorf("ep: %w", ErrCircuitOpen), false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestFaultyDeterministicStream(t *testing.T) {
	outcomes := func(seed int64) []bool {
		f := NewFaulty(NewLocal("ep", testStore()), FaultConfig{Seed: seed, ErrorRate: 0.5})
		var out []bool
		for i := 0; i < 32; i++ {
			_, err := f.Query(context.Background(), `ASK { ?s ?p ?o }`)
			out = append(out, err == nil)
		}
		return out
	}
	a, b := outcomes(7), outcomes(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
	c := outcomes(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault streams (suspicious)")
	}
}

func TestFaultySlowMode(t *testing.T) {
	f := NewFaulty(NewLocal("ep", testStore()), FaultConfig{SlowBy: 30 * time.Millisecond})
	start := time.Now()
	if _, err := f.Query(context.Background(), `ASK { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Errorf("elapsed %v, want >= ~30ms slowdown", el)
	}

}

func TestHTTPStatusClassification(t *testing.T) {
	// A parse error over the wire must come back as a permanent 400.
	local := NewLocal("server", testStore())
	srv := httptest.NewServer(Handler(local))
	defer srv.Close()
	client := NewHTTP("client", srv.URL)
	_, err := client.Query(context.Background(), `NOT SPARQL`)
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusBadRequest {
		t.Fatalf("parse error over HTTP = %v, want HTTPError 400", err)
	}
	if Retryable(err) {
		t.Error("HTTP 400 must not be retryable")
	}

	// A 5xx from the server is retryable.
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer flaky.Close()
	_, err = NewHTTP("flaky", flaky.URL).Query(context.Background(), `ASK { ?s ?p ?o }`)
	if !errors.As(err, &he) || he.Status != http.StatusServiceUnavailable {
		t.Fatalf("5xx = %v, want HTTPError 503", err)
	}
	if !Retryable(err) {
		t.Error("HTTP 503 must be retryable")
	}

	// A refused connection is a transient transport fault.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	_, err = NewHTTP("dead", deadURL).Query(context.Background(), `ASK { ?s ?p ?o }`)
	if err == nil || !Retryable(err) {
		t.Errorf("connection failure = %v, want retryable transport error", err)
	}
}

func TestResilientOverHTTPRecovers(t *testing.T) {
	// End to end: an HTTP endpoint that 503s twice then recovers is
	// healed by the client's retry loop.
	local := NewLocal("server", testStore())
	n := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n++
		if n <= 2 {
			http.Error(w, "warming up", http.StatusInternalServerError)
			return
		}
		Handler(local).ServeHTTP(w, r)
	}))
	defer srv.Close()
	r := resilient(NewHTTP("client", srv.URL), quickResilience())
	res, err := r.Query(context.Background(), `ASK { ?s ?p ?o }`)
	if err != nil {
		t.Fatalf("did not recover from 5xx: %v", err)
	}
	if !res.Ask {
		t.Error("wrong result")
	}
	if r.Stats().Retries != 2 {
		t.Errorf("retries = %d, want 2", r.Stats().Retries)
	}
}

func TestLocalErrorPathsChargeNetwork(t *testing.T) {
	// A failed request still pays the RTT and records query time:
	// failures must not look free in geo-distributed experiments.
	ep := NewLocal("ep", testStore()).WithNetwork(NetworkProfile{RTT: 30 * time.Millisecond})
	start := time.Now()
	if _, err := ep.Query(context.Background(), `NOT SPARQL`); err == nil {
		t.Fatal("bad query accepted")
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Errorf("error response took %v, want >= ~30ms RTT", el)
	}
	if st := ep.Stats(); st.QueryTime <= 0 {
		t.Errorf("error path recorded no query time: %+v", st)
	}
}
