package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lusail/internal/endpoint"
)

// Coherence is the engine's cache-coherence fence. It tracks a
// monotonic data version per endpoint (probed via
// endpoint.DataVersionOf, amortized over a configurable window) and
// invalidates an endpoint's cached state when its version changes: the
// engine wires onChange to InvalidateEndpointCaches, which advances the
// endpoint's generation in the plan knowledge — the one invalidation
// state behind every retained fact, summary and subquery result.
// Endpoints that expose no version (ok=false from the probe) are
// unverifiable: their cached state is served as before the fence
// existed, and the engine's staleness verdict reports it.
//
// Refresh invalidates under the fence's lock, so no query can see a
// changed version before the endpoint's generation has moved. Lock
// order: Coherence.mu before the plan knowledge's slot locks, which
// never call into the fence while held.
type Coherence struct {
	window   time.Duration
	eps      []endpoint.Endpoint
	onChange func(name string)
	now      func() time.Time

	mu      sync.Mutex
	tracked map[string]*epTrack

	probes      atomic.Int64
	probeErrors atomic.Int64
	changes     atomic.Int64
}

// epTrack is the per-endpoint fence state.
type epTrack struct {
	version   uint64
	versioned bool      // the endpoint has answered a version probe
	probed    bool      // at least one probe attempt ran
	checked   time.Time // last probe attempt
}

// NewCoherence builds a fence over eps. window amortizes probes: an
// endpoint is re-probed only when its last probe is at least window
// old (0 = probe on every Refresh). onChange is invoked with each
// endpoint name whose version changed.
func NewCoherence(eps []endpoint.Endpoint, window time.Duration, onChange func(name string)) *Coherence {
	return &Coherence{
		window:   window,
		eps:      eps,
		onChange: onChange,
		now:      time.Now,
		tracked:  make(map[string]*epTrack, len(eps)),
	}
}

// Refresh brings the tracked versions up to date, probing every
// endpoint whose coherence window has lapsed, and invalidates the
// per-endpoint cached state of every endpoint whose version changed.
// The engine calls it at the start of each query, so a cached entry can
// be served at most one window past a data change.
// Probe failures never fail the query: the endpoint keeps its last
// tracked version (the fence stays conservative: nothing is invalidated,
// and the error is counted).
func (c *Coherence) Refresh(ctx context.Context) {
	if c == nil {
		return
	}
	type probeResult struct {
		name string
		v    uint64
		ok   bool
		err  error
	}
	now := c.now()
	var due []endpoint.Endpoint
	c.mu.Lock()
	for _, ep := range c.eps {
		t := c.tracked[ep.Name()]
		if t == nil || !t.probed || c.window <= 0 || now.Sub(t.checked) >= c.window {
			due = append(due, ep)
		}
	}
	c.mu.Unlock()
	if len(due) == 0 {
		return
	}
	results := make([]probeResult, len(due))
	var wg sync.WaitGroup
	for i, ep := range due {
		wg.Add(1)
		go func(i int, ep endpoint.Endpoint) {
			defer wg.Done()
			v, ok, err := endpoint.DataVersionOf(ctx, ep)
			results[i] = probeResult{name: ep.Name(), v: v, ok: ok, err: err}
		}(i, ep)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range results {
		c.probes.Add(1)
		t := c.tracked[r.name]
		if t == nil {
			t = &epTrack{}
			c.tracked[r.name] = t
		}
		t.probed = true
		t.checked = now
		if r.err != nil {
			c.probeErrors.Add(1)
			continue // keep the last tracked version: conservative
		}
		if !r.ok {
			t.versioned = false
			continue
		}
		if t.versioned && r.v != t.version {
			c.changes.Add(1)
			if c.onChange != nil {
				c.onChange(r.name)
			}
		}
		t.versioned = true
		t.version = r.v
	}
}

// Version reports one endpoint's tracked data version; ok=false when
// there is no fence or the endpoint exposes none.
func (c *Coherence) Version(name string) (v uint64, ok bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.tracked[name]; t != nil && t.versioned {
		return t.version, true
	}
	return 0, false
}

// Staleness verdicts annotated onto Metrics: what guarantee the
// query's cached reuse carried.
const (
	// StalenessFresh: every cache reuse was fenced against a version
	// probed at query start (window 0), or the engine retains nothing —
	// served data matches the endpoints' current versions up to
	// mid-query churn.
	StalenessFresh = "fresh"
	// StalenessBounded: fenced, but probes are amortized over a window;
	// a served entry may lag a data change by at most the window.
	StalenessBounded = "bounded"
	// StalenessUnverified: fenced where possible, but at least one
	// endpoint exposes no data version, so its cached state cannot be
	// verified.
	StalenessUnverified = "unverified"
)

// Verdict reports the engine-level staleness guarantee for a query
// executed under this fence. An engine that retains nothing runs no
// fence (nil), and its queries reuse nothing: they are fresh.
func (c *Coherence) Verdict() string {
	if c == nil {
		return StalenessFresh
	}
	c.mu.Lock()
	unverified := len(c.tracked) == 0
	for _, t := range c.tracked {
		if !t.versioned {
			unverified = true
			break
		}
	}
	c.mu.Unlock()
	if unverified {
		return StalenessUnverified
	}
	if c.window > 0 {
		return StalenessBounded
	}
	return StalenessFresh
}

// EndpointVersion is one endpoint's tracked fence state, for metrics
// exposition (lusail_endpoint_data_version).
type EndpointVersion struct {
	Name      string
	Version   uint64
	Versioned bool
}

// CoherenceStats snapshots the fence for metrics export.
type CoherenceStats struct {
	Endpoints   []EndpointVersion
	Probes      int64
	ProbeErrors int64
	Changes     int64
	// Fenced counts subquery-cache entries dropped at lookup because a
	// source endpoint was invalidated after they were computed.
	Fenced int64
}

// Stats snapshots the fence state, endpoints sorted by name. Fenced is
// the subquery cache's to fill in.
func (c *Coherence) Stats() CoherenceStats {
	if c == nil {
		return CoherenceStats{}
	}
	c.mu.Lock()
	eps := make([]EndpointVersion, 0, len(c.tracked))
	for name, t := range c.tracked {
		eps = append(eps, EndpointVersion{Name: name, Version: t.version, Versioned: t.versioned})
	}
	c.mu.Unlock()
	sort.Slice(eps, func(i, j int) bool { return eps[i].Name < eps[j].Name })
	return CoherenceStats{
		Endpoints:   eps,
		Probes:      c.probes.Load(),
		ProbeErrors: c.probeErrors.Load(),
		Changes:     c.changes.Load(),
	}
}
