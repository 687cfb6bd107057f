// Package endpoint provides the SPARQL endpoint abstraction used by
// all federated engines: an interface, an in-process implementation
// with a simulated network (latency + bandwidth), and an HTTP
// server/client pair speaking the SPARQL protocol with JSON results.
//
// Remote-request and transferred-byte counters are first-class: the
// paper's central claim (Fig. 3) is the correlation between remote
// requests, intermediate data, and response time, so every experiment
// needs those numbers.
package endpoint

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"lusail/internal/engine"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/trace"
)

// Endpoint is one SPARQL endpoint of the decentralized graph.
type Endpoint interface {
	// Name identifies the endpoint (used in plans and reports).
	Name() string
	// Query evaluates a SPARQL query and returns its results.
	Query(ctx context.Context, query string) (*sparql.Results, error)
}

// StatsSource is implemented by endpoints that track request counters.
type StatsSource interface {
	Stats() Stats
	ResetStats()
}

// Stats counts the traffic one endpoint has served, plus the
// fault-tolerance events and latencies its Client (if any) recorded.
type Stats struct {
	Requests  int64 // remote requests received
	Rows      int64 // solution rows shipped back
	Bytes     int64 // approximate wire bytes shipped back
	QueryTime time.Duration

	Retries      int64 // retry attempts issued by the client's retry loop
	BreakerOpens int64 // requests rejected fast by an open circuit breaker
	Timeouts     int64 // attempts that hit the per-request timeout

	Hedges    int64 // backup attempts launched by a hedging client
	HedgeWins int64 // hedged requests the backup attempt won

	// Errors counts failed calls observed by a Client (after any
	// retries underneath), and Latency is its whole-call latency
	// histogram in seconds, with the latest sampled trace per bucket;
	// both stay zero without one.
	Errors  int64
	Latency trace.HistogramSnapshot
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Requests += o.Requests
	s.Rows += o.Rows
	s.Bytes += o.Bytes
	s.QueryTime += o.QueryTime
	s.Retries += o.Retries
	s.BreakerOpens += o.BreakerOpens
	s.Timeouts += o.Timeouts
	s.Hedges += o.Hedges
	s.HedgeWins += o.HedgeWins
	s.Errors += o.Errors
	s.Latency.Add(o.Latency)
}

// NetworkProfile models the link between the federator and an
// endpoint. The zero value is a perfect link (no delay).
type NetworkProfile struct {
	// RTT is charged once per request.
	RTT time.Duration
	// BytesPerSecond throttles the response body; zero means
	// unlimited.
	BytesPerSecond int64
}

// Delay returns the simulated network time for a response of size
// bytes.
func (np NetworkProfile) Delay(bytes int64) time.Duration {
	d := np.RTT
	if np.BytesPerSecond > 0 {
		d += time.Duration(float64(bytes) / float64(np.BytesPerSecond) * float64(time.Second))
	}
	return d
}

// WAN profiles used by the geo-distributed experiments: the paper's 7
// Azure regions are represented by a spread of RTTs.
var (
	// LANProfile approximates the paper's local 1Gb cluster.
	LANProfile = NetworkProfile{RTT: 300 * time.Microsecond, BytesPerSecond: 125_000_000}
	// WANProfile approximates cross-region links on a public cloud.
	WANProfile = NetworkProfile{RTT: 20 * time.Millisecond, BytesPerSecond: 12_500_000}
)

// Regions models the paper's seven Azure regions in the USA and
// Europe, seen from a federator in Central US: heterogeneous RTTs from
// near (same region) to transatlantic.
var Regions = []NetworkProfile{
	{RTT: 8 * time.Millisecond, BytesPerSecond: 25_000_000},  // Central US (near)
	{RTT: 18 * time.Millisecond, BytesPerSecond: 18_000_000}, // East US
	{RTT: 22 * time.Millisecond, BytesPerSecond: 18_000_000}, // West US
	{RTT: 35 * time.Millisecond, BytesPerSecond: 15_000_000}, // North Europe
	{RTT: 42 * time.Millisecond, BytesPerSecond: 15_000_000}, // West Europe
	{RTT: 28 * time.Millisecond, BytesPerSecond: 16_000_000}, // South Central US
	{RTT: 48 * time.Millisecond, BytesPerSecond: 12_000_000}, // UK
}

// RegionProfile returns the i-th region's profile, cycling like the
// paper's round-robin placement of endpoints over regions.
func RegionProfile(i int) NetworkProfile { return Regions[i%len(Regions)] }

// Local is an in-process endpoint: an engine over a store plus a
// simulated network link and counters.
type Local struct {
	name string
	eng  *engine.Engine
	net  NetworkProfile

	requests  atomic.Int64
	rows      atomic.Int64
	bytes     atomic.Int64
	queryTime atomic.Int64 // nanoseconds

	// dataVersion is the monotonic data version: 1 at creation, bumped
	// on every applied churn mutation (ApplyChurn) or explicit
	// BumpDataVersion. The coherence layer fences cached results
	// against it.
	dataVersion atomic.Uint64
}

// NewLocal creates an endpoint named name over st with a perfect
// network link.
func NewLocal(name string, st *store.Store) *Local {
	l := &Local{name: name, eng: engine.New(st)}
	l.dataVersion.Store(1)
	return l
}

// WithNetwork sets the simulated network profile and returns the
// endpoint for chaining.
func (l *Local) WithNetwork(np NetworkProfile) *Local {
	l.net = np
	return l
}

// Name returns the endpoint name.
func (l *Local) Name() string { return l.name }

// Store exposes the underlying store (data loading, tests).
func (l *Local) Store() *store.Store { return l.eng.Store() }

// DataVersion reports the endpoint's current data version (a probe is
// free on a local endpoint). Implements DataVersioner.
func (l *Local) DataVersion(ctx context.Context) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return l.dataVersion.Load(), nil
}

// BumpDataVersion advances the data version without mutating the
// store. Used when the store is mutated directly (data loading after
// serving started, tests).
func (l *Local) BumpDataVersion() uint64 {
	return l.dataVersion.Add(1)
}

// ApplyChurn applies one mutation batch — remove first, then insert,
// atomically — and bumps the data version exactly once. Implements
// ChurnTarget.
func (l *Local) ApplyChurn(insert, remove rdf.Graph) {
	if len(insert) == 0 && len(remove) == 0 {
		return
	}
	// The batch lands under one store lock, so no query sees it half
	// applied; the version bumps after it, so a reader of the old state
	// observes the new version on its next probe.
	l.eng.Store().Apply(insert, remove)
	l.dataVersion.Add(1)
}

// Query parses and evaluates the query, charging the simulated network
// cost for the request and its response size. Error responses still
// pay at least the link's RTT and still record their elapsed query
// time: in the geo-distributed experiments a failed request is not
// free.
func (l *Local) Query(ctx context.Context, query string) (*sparql.Results, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	l.requests.Add(1)
	start := time.Now()
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, l.failed(ctx, start, &ParseError{Err: fmt.Errorf("endpoint %s: %w", l.name, err)})
	}
	res, err := l.eng.Eval(q)
	if err != nil {
		return nil, l.failed(ctx, start, fmt.Errorf("endpoint %s: %w", l.name, err))
	}
	l.queryTime.Add(int64(time.Since(start)))
	wire := res.ApproxWireBytes()
	l.rows.Add(int64(res.Len()))
	l.bytes.Add(wire)
	if err := l.sleepNet(ctx, l.net.Delay(wire)); err != nil {
		return nil, err
	}
	return res, nil
}

// failed accounts for an error response: it records the elapsed query
// time and charges the RTT (an error reply still crosses the wire),
// then returns qerr (or the context error if cancellation preempts the
// simulated delay).
func (l *Local) failed(ctx context.Context, start time.Time, qerr error) error {
	l.queryTime.Add(int64(time.Since(start)))
	if err := l.sleepNet(ctx, l.net.Delay(0)); err != nil {
		return err
	}
	return qerr
}

// sleepNet blocks for the simulated network delay, honouring ctx.
func (l *Local) sleepNet(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Stats returns a snapshot of the endpoint's counters.
func (l *Local) Stats() Stats {
	return Stats{
		Requests:  l.requests.Load(),
		Rows:      l.rows.Load(),
		Bytes:     l.bytes.Load(),
		QueryTime: time.Duration(l.queryTime.Load()),
	}
}

// ResetStats zeroes the counters.
func (l *Local) ResetStats() {
	l.requests.Store(0)
	l.rows.Store(0)
	l.bytes.Store(0)
	l.queryTime.Store(0)
}

// TotalStats sums the stats of all endpoints that expose them.
func TotalStats(eps []Endpoint) Stats {
	var total Stats
	for _, ep := range eps {
		if ss, ok := ep.(StatsSource); ok {
			total.Add(ss.Stats())
		}
	}
	return total
}

// ResetAll resets counters on all endpoints that expose them.
func ResetAll(eps []Endpoint) {
	for _, ep := range eps {
		if ss, ok := ep.(StatsSource); ok {
			ss.ResetStats()
		}
	}
}
