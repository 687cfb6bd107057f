package endpoint

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lusail/internal/sparql"
	"lusail/internal/trace"
)

// Hedge tuning: a backup attempt fires once the primary outlives the
// endpoint's observed hedgeQuantile attempt latency, armed only after
// hedgeMinSamples completed attempts (with fewer the quantile estimate
// is noise), and never sooner than hedgeMinDelay, so a very fast
// endpoint does not double every request.
const (
	hedgeQuantile   = 0.95
	hedgeMinSamples = 20
	hedgeMinDelay   = time.Millisecond
)

type hedgeKey struct{}

// WithHedging marks ctx as eligible for hedged requests. The executor
// sets it only around phase-1 unbound subqueries: check, COUNT, and
// bound requests are either cheap probes or carry VALUES payloads big
// enough that doubling them is a poor trade.
func WithHedging(ctx context.Context) context.Context {
	return context.WithValue(ctx, hedgeKey{}, true)
}

// HedgingAllowed reports whether ctx opted in to hedged requests.
func HedgingAllowed(ctx context.Context) bool {
	ok, _ := ctx.Value(hedgeKey{}).(bool)
	return ok
}

// Client is the engine's view of one endpoint. Its Query runs, in
// order: whole-call instrumentation (a fixed-bucket latency histogram,
// an error counter and per-bucket trace exemplars), the hedge race
// (on an opted-in context, one backup attempt once the primary
// outlives the latency-quantile trigger; first result wins), and, in
// each attempt, the circuit breaker and retry loop with per-attempt
// timeouts. It implements Endpoint and StatsSource; its Stats add its
// own counters to the inner endpoint's traffic counters.
type Client struct {
	inner Endpoint

	// inflight counts the calls currently inside Query.
	inflight atomic.Int64

	// Resilience: nil res means one attempt and no breaker.
	res *ResilienceConfig
	brk *breaker
	mu  sync.Mutex
	rng *rand.Rand

	// Hedging, when on, keeps its own histogram of attempt latencies
	// (the whole-call one below observes merged hedged calls). The
	// tuning starts at the hedge constants; tests lower it.
	hedge          bool
	quantile       float64
	minSamples     int64
	minDelay       time.Duration
	attemptBuckets [numBuckets]atomic.Int64

	retries      atomic.Int64
	breakerOpens atomic.Int64
	timeouts     atomic.Int64
	hedges       atomic.Int64
	hedgeWins    atomic.Int64
	errors       atomic.Int64

	buckets   [numBuckets]atomic.Int64
	sumNanos  atomic.Int64
	exemplars [numBuckets]atomic.Pointer[LatencyExemplar]
}

// NewClient wraps ep. resilience, when non-nil, adds per-attempt
// timeouts, bounded retries with jittered exponential backoff and,
// with BreakerFailures > 0, a circuit breaker; hedge enables backup
// attempts on contexts marked WithHedging.
func NewClient(ep Endpoint, resilience *ResilienceConfig, hedge bool) *Client {
	c := &Client{
		inner: ep, hedge: hedge,
		quantile: hedgeQuantile, minSamples: hedgeMinSamples, minDelay: hedgeMinDelay,
	}
	if resilience != nil {
		cfg := *resilience
		if cfg.MaxBackoff <= 0 {
			cfg.MaxBackoff = 32 * cfg.BaseBackoff
		}
		c.res = &cfg
		c.rng = rand.New(rand.NewSource(cfg.Seed))
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

// Query runs the hedge race under whole-call instrumentation.
func (c *Client) Query(ctx context.Context, query string) (*sparql.Results, error) {
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	start := time.Now()
	res, err := c.hedged(ctx, query)
	d := time.Since(start)
	bucket := bucketOf(d)
	c.buckets[bucket].Add(1)
	c.sumNanos.Add(int64(d))
	if err != nil {
		c.errors.Add(1)
	}
	// Pin the issuing trace to the bucket (last-write-wins) so the
	// scrape can link the bucket to an exported trace. Unsampled traces
	// are skipped: their spans never reach the collector.
	if sp := trace.SpanFrom(ctx); sp != nil && sp.Sampled() && !sp.TraceID().IsZero() {
		c.exemplars[bucket].Store(&LatencyExemplar{
			TraceID: sp.TraceID().String(), Value: d, At: start,
		})
	}
	return res, err
}

type hedgeOutcome struct {
	res    *sparql.Results
	err    error
	backup bool
}

// hedged runs one attempt, or — on an opted-in context once the
// trigger is armed — races a backup attempt against a primary that
// outlives it.
func (c *Client) hedged(ctx context.Context, query string) (*sparql.Results, error) {
	delay := time.Duration(0)
	if c.hedge && HedgingAllowed(ctx) {
		delay = c.triggerDelay()
	}
	if delay <= 0 {
		return c.attempt(ctx, query)
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered so the losing attempt's send never blocks after the
	// winner returns and cancel() unblocks it.
	out := make(chan hedgeOutcome, 2)
	attempt := func(backup bool) {
		res, err := c.attempt(hctx, query)
		out <- hedgeOutcome{res: res, err: err, backup: backup}
	}

	go attempt(false)
	timer := time.NewTimer(delay)
	defer timer.Stop()

	launched := false
	pending := 1
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !launched {
				launched = true
				pending++
				c.hedges.Add(1)
				if fc := FaultCountersFrom(ctx); fc != nil {
					fc.hedges.Add(1)
				}
				go attempt(true)
			}
		case o := <-out:
			pending--
			if o.err == nil {
				if o.backup {
					c.hedgeWins.Add(1)
				}
				return o.res, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if pending == 0 {
				return nil, firstErr
			}
			if !launched {
				// Primary failed before the trigger: no point hedging a
				// request whose error was not slowness.
				return nil, firstErr
			}
		}
	}
}

// attempt is one hedge attempt: the retry loop, timed into the hedge
// trigger's histogram when it completes uncancelled.
func (c *Client) attempt(ctx context.Context, query string) (*sparql.Results, error) {
	if !c.hedge {
		return c.retry(ctx, query)
	}
	start := time.Now()
	res, err := c.retry(ctx, query)
	if ctx.Err() == nil {
		c.attemptBuckets[bucketOf(time.Since(start))].Add(1)
	}
	return res, err
}

// triggerDelay returns the hedge trigger, or 0 when not yet armed.
func (c *Client) triggerDelay() time.Duration {
	var hist LatencyHistogram
	for i := range c.attemptBuckets {
		hist.Counts[i] = c.attemptBuckets[i].Load()
	}
	if hist.Count() < c.minSamples {
		return 0
	}
	return max(hist.Quantile(c.quantile), c.minDelay)
}

// LatencyExemplars snapshots the per-bucket exemplars: one entry per
// histogram bucket (+Inf last), nil where no traced call landed yet.
func (c *Client) LatencyExemplars() []*LatencyExemplar {
	out := make([]*LatencyExemplar, numBuckets)
	for i := range c.exemplars {
		out[i] = c.exemplars[i].Load()
	}
	return out
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
	s.Hedges += c.hedges.Load()
	s.HedgeWins += c.hedgeWins.Load()
	s.Errors += c.errors.Load()
	var h LatencyHistogram
	for i := range c.buckets {
		h.Counts[i] = c.buckets[i].Load()
	}
	h.Sum = time.Duration(c.sumNanos.Load())
	s.Latency.Add(h)
	return s
}

// ResetStats zeroes the client's and the inner counters, disarming
// the hedge trigger until it has observed enough attempts again.
func (c *Client) ResetStats() {
	for _, n := range []*atomic.Int64{&c.retries, &c.breakerOpens, &c.timeouts, &c.hedges, &c.hedgeWins, &c.errors, &c.sumNanos} {
		n.Store(0)
	}
	for i := range c.buckets {
		c.buckets[i].Store(0)
		c.attemptBuckets[i].Store(0)
	}
	if ss, ok := c.inner.(StatsSource); ok {
		ss.ResetStats()
	}
}
