package endpoint

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"lusail/internal/sparql"
	"lusail/internal/trace"
)

// ResilienceConfig tunes a Client's breaker and retry loop.
type ResilienceConfig struct {
	// Timeout bounds each individual attempt (0 = no per-attempt
	// timeout). A timed-out attempt counts as a transient failure.
	Timeout time.Duration
	// MaxRetries is the number of additional attempts after the first
	// one fails with a retryable error (0 = fail on first error).
	MaxRetries int
	// BaseBackoff is the backoff before the first retry; each further
	// retry doubles it (exponential), capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff (0 = 32×BaseBackoff).
	MaxBackoff time.Duration
	// BreakerFailures consecutive failures open the circuit breaker
	// (0 disables the breaker).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker rejects requests
	// before letting one probe through (half-open).
	BreakerCooldown time.Duration
	// Seed makes the backoff jitter deterministic.
	Seed int64
}

// DefaultResilience returns production-shaped defaults scaled for the
// in-process simulator: three retries with 5ms..160ms jittered
// exponential backoff, a 10s per-attempt timeout, and a breaker that
// opens after 5 consecutive failures for 250ms.
func DefaultResilience() ResilienceConfig {
	return ResilienceConfig{
		Timeout:         10 * time.Second,
		MaxRetries:      3,
		BaseBackoff:     5 * time.Millisecond,
		MaxBackoff:      160 * time.Millisecond,
		BreakerFailures: 5,
		BreakerCooldown: 250 * time.Millisecond,
	}
}

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a per-endpoint circuit breaker: closed counts consecutive
// failures; at the threshold it opens and rejects requests locally
// until the cooldown elapses; then half-open admits a single probe
// whose outcome closes or re-opens the circuit.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // stubbed in tests

	mu       sync.Mutex
	state    int
	failures int
	openedAt time.Time
	probing  bool
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a request may proceed; !ok means the caller
// must fail fast with ErrCircuitOpen. probe marks the request as the
// single half-open probe: the caller MUST resolve it — success,
// failure, or releaseProbe — or the breaker stays stuck half-open
// rejecting everything.
func (b *breaker) allow() (ok, probe bool) {
	if b == nil {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false, false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true, true
	default: // half-open: one probe at a time
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// success records a completed request.
func (b *breaker) success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
}

// failure records a failed request, possibly opening the circuit.
func (b *breaker) failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
		b.openedAt = b.now()
		b.probing = false
		return
	}
	b.failures++
	if b.failures >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.now()
	}
}

// releaseProbe abandons a half-open probe whose outcome is unknown
// (the caller's context was cancelled mid-flight). A cancelled probe
// proves nothing about the endpoint, so the state stays half-open but
// the probe slot is freed for the next request to try — without this
// the breaker would reject every future request with ErrCircuitOpen.
func (b *breaker) releaseProbe() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// retry runs the breaker and retry loop around the inner endpoint.
// Without a resilience config it is the inner call itself.
func (c *Client) retry(ctx context.Context, query string) (*sparql.Results, error) {
	if c.res == nil {
		return c.inner.Query(ctx, query)
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ok, probe := c.brk.allow()
		if !ok {
			c.breakerOpens.Add(1)
			trace.SpanFrom(ctx).Add("breaker_opens", 1)
			return nil, fmt.Errorf("endpoint %s: %w", c.Name(), ErrCircuitOpen)
		}
		res, err := c.timed(ctx, query)
		if err == nil {
			c.brk.success()
			return res, nil
		}
		if ctx.Err() != nil {
			// The caller's own context expired or was cancelled;
			// retrying past it is useless. A probe cancelled mid-flight
			// proves nothing about the endpoint, so free the half-open
			// slot for the next request instead of leaking it.
			if probe {
				c.brk.releaseProbe()
			}
			return nil, ctx.Err()
		}
		lastErr = err
		switch {
		case Retryable(err):
			// Only faults that say something about the endpoint's
			// health count toward opening the circuit.
			c.brk.failure()
		case probe:
			// A permanent error (parse error, HTTP 4xx) still resolves
			// the probe: the endpoint answered definitively, so it is
			// alive and the circuit closes.
			c.brk.success()
		}
		if !Retryable(err) || attempt >= c.res.MaxRetries {
			return nil, lastErr
		}
		c.retries.Add(1)
		trace.SpanFrom(ctx).Add("retries", 1)
		if err := c.sleepBackoff(ctx, attempt); err != nil {
			return nil, lastErr
		}
	}
}

// timed issues one request under the per-attempt timeout. A deadline
// expiry caused by that timeout (not by the caller's context) is
// reported as a transient timeout error so the retry loop can re-roll.
func (c *Client) timed(ctx context.Context, query string) (*sparql.Results, error) {
	if c.res.Timeout <= 0 {
		return c.inner.Query(ctx, query)
	}
	actx, cancel := context.WithTimeout(ctx, c.res.Timeout)
	defer cancel()
	res, err := c.inner.Query(actx, query)
	// Rewrap only when the error itself is the deadline expiring — a
	// genuine endpoint error (e.g. an HTTPError) that merely raced with
	// the deadline must surface as-is, not be forced into a retry.
	if err != nil && errors.Is(err, context.DeadlineExceeded) &&
		actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
		c.timeouts.Add(1)
		return nil, Transient(fmt.Errorf("endpoint %s: request timed out after %s: %w",
			c.Name(), c.res.Timeout, context.DeadlineExceeded))
	}
	return res, err
}

// sleepBackoff waits the jittered exponential backoff for the given
// attempt number, aborting early if ctx is cancelled.
func (c *Client) sleepBackoff(ctx context.Context, attempt int) error {
	if c.res.BaseBackoff <= 0 {
		return ctx.Err()
	}
	d := c.res.BaseBackoff << uint(attempt)
	if d > c.res.MaxBackoff || d <= 0 {
		d = c.res.MaxBackoff
	}
	// Full jitter: sleep a uniform fraction in [d/2, d].
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	d = d/2 + jitter
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// BreakerState is the externally visible state of a circuit breaker.
type BreakerState int

// Breaker states, in increasing order of degradation as seen by
// readiness probes: closed (healthy), half-open (probing), open
// (failing fast).
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state for logs and metric labels.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// BreakerState reports the circuit-breaker state a request arriving
// now would meet. Clients configured without a breaker always read
// as closed. An open breaker whose cooldown has elapsed reads
// half-open, because the next request goes through as its probe: the
// state moves without traffic, so a readiness rule built on it cannot
// keep traffic away from a breaker that only traffic would close.
func (c *Client) BreakerState() BreakerState {
	if c.brk == nil {
		return BreakerClosed
	}
	c.brk.mu.Lock()
	defer c.brk.mu.Unlock()
	if c.brk.state == breakerOpen && c.brk.now().Sub(c.brk.openedAt) >= c.brk.cooldown {
		return BreakerHalfOpen
	}
	return BreakerState(c.brk.state)
}

// BreakerStatus pairs an endpoint name with its breaker state.
type BreakerStatus struct {
	Name  string
	State BreakerState
}

// BreakerStatuses reports the breaker state of every client that has
// a resilience config, sorted by endpoint name. Other endpoints are
// omitted: they have no breaker to report.
func BreakerStatuses(eps []Endpoint) []BreakerStatus {
	var out []BreakerStatus
	for _, ep := range eps {
		if c, ok := ep.(*Client); ok && c.res != nil {
			out = append(out, BreakerStatus{Name: c.Name(), State: c.BreakerState()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
