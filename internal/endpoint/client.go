package endpoint

import (
	"context"
	"sync/atomic"
	"time"

	"lusail/internal/sparql"
	"lusail/internal/trace"
)

// Client is the engine's view of one endpoint. Its Query runs
// whole-call instrumentation (a latency histogram with per-bucket
// trace exemplars, and an error counter) around the circuit breaker
// and retry loop with per-attempt timeouts. It implements Endpoint and
// StatsSource; its Stats add its own counters to the inner endpoint's
// traffic counters.
type Client struct {
	inner Endpoint

	// inflight counts the calls currently inside Query.
	inflight atomic.Int64

	// Resilience: nil res means one attempt and no breaker.
	res *ResilienceConfig
	brk *breaker

	retries      atomic.Int64
	breakerOpens atomic.Int64
	timeouts     atomic.Int64
	errors       atomic.Int64

	latency *trace.Histogram
}

// NewClient wraps ep. resilience, when non-nil, adds per-attempt
// timeouts, bounded retries with jittered exponential backoff and,
// with BreakerFailures > 0, a circuit breaker.
func NewClient(ep Endpoint, resilience *ResilienceConfig) *Client {
	c := &Client{inner: ep, latency: NewLatencyHistogram()}
	if resilience != nil {
		cfg := *resilience
		if cfg.MaxBackoff <= 0 {
			cfg.MaxBackoff = 32 * cfg.BaseBackoff
		}
		c.res = &cfg
		if cfg.BreakerFailures > 0 {
			c.brk = newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown)
		}
	}
	return c
}

// Name implements Endpoint.
func (c *Client) Name() string { return c.inner.Name() }

// InFlight reports the number of calls currently inside Query: the
// requests on the wire to this endpoint, retries and backoff included.
func (c *Client) InFlight() int64 { return c.inflight.Load() }

// Query runs the breaker and retry loop under whole-call
// instrumentation.
func (c *Client) Query(ctx context.Context, query string) (*sparql.Results, error) {
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	start := time.Now()
	res, err := c.retry(ctx, query)
	d := time.Since(start).Seconds()
	if err != nil {
		c.errors.Add(1)
	}
	// Pin the issuing trace to the bucket so the scrape can link the
	// bucket to an exported trace.
	c.latency.Observe(d, trace.NewExemplar(trace.SpanFrom(ctx), d))
	return res, err
}

// Stats merges the inner endpoint's traffic counters with the client's
// fault-recovery counters, error count and whole-call latency
// histogram.
func (c *Client) Stats() Stats {
	var s Stats
	if ss, ok := c.inner.(StatsSource); ok {
		s = ss.Stats()
	}
	s.Retries += c.retries.Load()
	s.BreakerOpens += c.breakerOpens.Load()
	s.Timeouts += c.timeouts.Load()
	s.Errors += c.errors.Load()
	s.Latency.Add(c.latency.Snapshot())
	return s
}

// ResetStats zeroes the client's and the inner counters.
func (c *Client) ResetStats() {
	for _, n := range []*atomic.Int64{&c.retries, &c.breakerOpens, &c.timeouts, &c.errors} {
		n.Store(0)
	}
	c.latency.Reset()
	if ss, ok := c.inner.(StatsSource); ok {
		ss.ResetStats()
	}
}
