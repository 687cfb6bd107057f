package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lusail/internal/endpoint"
)

// CoherenceMode selects how the engine reacts to a cached entry whose
// data-version stamps no longer match the endpoints' current versions.
type CoherenceMode int

const (
	// CoherenceEnforce (the default) fences: a version change
	// invalidates the endpoint's cached state, and a stamped entry that
	// slips past invalidation (stored mid-flight) is rejected at lookup.
	CoherenceEnforce CoherenceMode = iota
	// CoherenceObserve tracks versions and stamps entries but never
	// invalidates or rejects: stale entries are served and counted
	// (lusail_cache_stale_served_total) and their drops re-charged to
	// the query's Completeness. This is the chaos harness's negative
	// mode — it exists to prove the oracle check catches incoherence —
	// and a diagnostic mode for measuring how much staleness a workload
	// would see without the fence.
	CoherenceObserve
)

// Coherence is the engine's cache-coherence fence. It tracks a
// monotonic data version per endpoint (probed via
// endpoint.DataVersionOf, amortized over a configurable window),
// invalidates per-endpoint cached state when a version change is
// detected, and verifies the version stamps the subquery cache put on
// its entries. Endpoints that expose no version (ok=false from the
// probe) are unverifiable: their cached state is served as before the
// fence existed, and the engine's staleness verdict reports it.
//
// Lock order: callers may hold a cache mutex when calling Versions /
// StaleSources / NoteStale (cache.mu -> Coherence.mu); Coherence never
// calls into a cache while holding its own mutex — Refresh collects
// changed endpoints under the lock and invalidates after releasing it.
type Coherence struct {
	window   time.Duration
	mode     CoherenceMode
	eps      []endpoint.Endpoint
	onChange func(name string)
	now      func() time.Time

	mu      sync.Mutex
	tracked map[string]*epTrack

	probes      atomic.Int64
	probeErrors atomic.Int64
	changes     atomic.Int64
	staleServed atomic.Int64
	fenced      atomic.Int64
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
// old (0 = probe on every Refresh). onChange is invoked — outside the
// fence's lock — with each endpoint name whose version changed, in
// enforce mode only; the engine wires it to InvalidateEndpointCaches.
func NewCoherence(eps []endpoint.Endpoint, window time.Duration, mode CoherenceMode, onChange func(name string)) *Coherence {
	return &Coherence{
		window:   window,
		mode:     mode,
		eps:      eps,
		onChange: onChange,
		now:      time.Now,
		tracked:  make(map[string]*epTrack, len(eps)),
	}
}

// Enforcing reports whether stale entries are rejected (vs. served and
// counted).
func (c *Coherence) Enforcing() bool { return c != nil && c.mode == CoherenceEnforce }

// Refresh brings the tracked versions up to date, probing every
// endpoint whose coherence window has lapsed, and — in enforce mode —
// invalidates the per-endpoint cached state of every endpoint whose
// version changed. The engine calls it at the start of each query, so
// a cached entry can be served at most one window past a data change.
// Probe failures never fail the query: the endpoint keeps its last
// tracked version (the fence stays conservative: entries stamped with
// it remain servable, and the error is counted).
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

	var changed []string
	c.mu.Lock()
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
			changed = append(changed, r.name)
		}
		t.versioned = true
		t.version = r.v
	}
	c.mu.Unlock()

	if c.mode != CoherenceEnforce {
		return
	}
	for _, name := range changed {
		if c.onChange != nil {
			c.onChange(name)
		}
	}
}

// Versions snapshots the tracked versions of the named endpoints, for
// stamping a cache entry at store time. Endpoints that expose no
// version are absent from the map — their entries are unverifiable,
// not stale. Safe to call under a cache lock.
func (c *Coherence) Versions(names []string) map[string]uint64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out map[string]uint64
	for _, n := range names {
		if t := c.tracked[n]; t != nil && t.versioned {
			if out == nil {
				out = make(map[string]uint64, len(names))
			}
			out[n] = t.version
		}
	}
	return out
}

// Version reports one endpoint's tracked data version; ok=false when
// the fence is off or the endpoint exposes none.
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

// StaleSources returns the endpoints among names whose tracked version
// no longer matches the entry's stamps: stamped with an older version,
// or — for a versioned endpoint — not stamped at all (the entry
// predates version tracking). nil means the entry is coherent (or
// unverifiable, which the fence deliberately does not punish). Safe to
// call under a cache lock.
func (c *Coherence) StaleSources(names []string, stamps map[string]uint64) []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var stale []string
	for _, n := range names {
		t := c.tracked[n]
		if t == nil || !t.versioned {
			continue
		}
		if v, ok := stamps[n]; !ok || v != t.version {
			stale = append(stale, n)
		}
	}
	return stale
}

// NoteStale counts entries served despite stale stamps (observe mode).
func (c *Coherence) NoteStale(n int) {
	if c != nil {
		c.staleServed.Add(int64(n))
	}
}

// NoteFenced counts entries rejected at lookup by the version fence.
func (c *Coherence) NoteFenced(n int) {
	if c != nil {
		c.fenced.Add(int64(n))
	}
}

// Staleness verdicts annotated onto Metrics: what guarantee the
// query's cached reuse carried.
const (
	// StalenessFresh: every cache reuse was fenced against a version
	// probed at query start (window 0) — served data matches the
	// endpoints' current versions up to mid-query churn.
	StalenessFresh = "fresh"
	// StalenessBounded: fenced, but probes are amortized over a window;
	// a served entry may lag a data change by at most the window.
	StalenessBounded = "bounded"
	// StalenessUnverified: fenced where possible, but at least one
	// endpoint exposes no data version, so its cached state cannot be
	// verified.
	StalenessUnverified = "unverified"
	// StalenessUnfenced: no fencing — coherence is disabled or running
	// observe-only, so stale entries are served (and counted).
	StalenessUnfenced = "unfenced"
)

// Verdict reports the engine-level staleness guarantee for a query
// executed with caches enabled under this fence.
func (c *Coherence) Verdict() string {
	if c == nil || c.mode != CoherenceEnforce {
		return StalenessUnfenced
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
	// StaleServed counts cache entries served despite stale version
	// stamps (observe mode only; always 0 while enforcing).
	StaleServed int64
	// Fenced counts cache entries rejected at lookup because their
	// stamps no longer matched the endpoint's current version.
	Fenced int64
}

// Stats snapshots the fence state, endpoints sorted by name.
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
		StaleServed: c.staleServed.Load(),
		Fenced:      c.fenced.Load(),
	}
}
