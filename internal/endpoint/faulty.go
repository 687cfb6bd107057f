package endpoint

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// Mutation is one scheduled churn batch: at a trigger point the
// wrapper deletes Delete from and inserts Insert into the inner
// endpoint's store (a swap sets both), bumping its data version. A
// mutation fires when the wrapper has seen AtRequest requests
// (AtRequest > 0), or when virtual time reaches AtTick (AtTick > 0,
// advanced by Tick) — whichever is configured; a mutation with both
// zero never fires. Request-count triggers exercise mid-query churn
// (a multi-subquery execution mutates under its own feet);
// tick triggers give the chaos harness churn at deterministic
// between-query points so an oracle can replay the exact version.
type Mutation struct {
	AtRequest int64
	AtTick    int64
	Insert    rdf.Graph
	Delete    rdf.Graph
}

// FaultConfig configures a Faulty wrapper. All modes compose; the zero
// value injects nothing and delegates every request.
type FaultConfig struct {
	// Seed makes the ErrorRate and HangRate draws deterministic. Each
	// draw hashes the seed, the endpoint's name, the query text and how
	// many times this wrapper has seen that text, so the same requests
	// draw the same faults whatever order concurrent requests arrive in.
	Seed int64
	// ErrorRate in [0,1] fails each request with this probability
	// (transient: a retry re-rolls).
	ErrorRate float64
	// FailFirst fails the first N requests (transient), then recovers —
	// the fail-N-then-recover mode used to exercise retry budgets.
	FailFirst int
	// FailOn permanently fails every query containing this substring
	// (non-retryable), modelling a request the endpoint cannot serve.
	FailOn string
	// Hang blocks every request until its context is cancelled,
	// modelling a wedged endpoint; only a caller-side timeout unblocks.
	Hang bool
	// HangOn hangs only queries containing this substring.
	HangOn string
	// SlowBy adds a fixed extra latency to every request, modelling a
	// degraded link or an overloaded server.
	SlowBy time.Duration
	// Down fails every request with a transient connection-refused
	// style error, modelling a hard-down endpoint that never recovers.
	Down bool
	// MaxRequestBytes, when > 0, rejects any query whose serialized
	// length exceeds the limit with an HTTPError (OversizeStatus),
	// modelling servers that cap URL or body size. The rejection is a
	// 4xx: non-retryable, so only re-chunking the request can succeed.
	MaxRequestBytes int
	// OversizeStatus is the HTTP status for oversized requests;
	// defaults to 413 (414 models a GET URL-length cap).
	OversizeStatus int
	// FlapDownFor/FlapUpFor, when both > 0, cycle the endpoint: the
	// first FlapDownFor requests fail (transient), the next FlapUpFor
	// succeed, and so on — modelling a flapping endpoint.
	FlapDownFor int
	FlapUpFor   int
	// HangRate in [0,1] hangs each request until its context is
	// cancelled with this probability, drawn like ErrorRate. Unlike
	// Hang, a retried request re-rolls, so a per-attempt timeout plus
	// retries recovers — the chaos harness uses this to exercise hang
	// recovery without wedging forever.
	HangRate float64
	// Mutations are churn batches applied to the inner endpoint's data
	// (via ChurnTarget) at their trigger points. Applied at most once
	// each, in slice order when several come due together.
	Mutations []Mutation
}

// Faulty is a first-class fault-injection endpoint wrapper: it
// implements Endpoint over an inner endpoint and injects transient
// errors, permanent errors, hangs, and slowdowns per its FaultConfig.
// Injected transient faults satisfy Retryable; permanent ones do not,
// so a Client's retry loop and tests can distinguish them.
type Faulty struct {
	Inner Endpoint
	cfg   FaultConfig

	// mu guards every mutable injection decision: the per-text request
	// counts (the draws' occurrence index), the request counter (also
	// the flap position, derived from it), virtual time, and the
	// mutation cursor. Counters that are only ever read as totals
	// (injected/completed/churned) are atomics.
	mu         sync.Mutex
	texts      map[string]int64
	seen       int64
	tick       int64
	mutApplied []bool

	injected  atomic.Int64
	completed atomic.Int64
	churned   atomic.Int64
}

// NewFaulty wraps inner with deterministic fault injection.
func NewFaulty(inner Endpoint, cfg FaultConfig) *Faulty {
	return &Faulty{
		Inner:      inner,
		cfg:        cfg,
		texts:      map[string]int64{},
		mutApplied: make([]bool, len(cfg.Mutations)),
	}
}

// Name implements Endpoint.
func (f *Faulty) Name() string { return f.Inner.Name() }

// Requests reports how many requests the wrapper has seen (including
// ones that failed or hung).
func (f *Faulty) Requests() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

// Injected reports how many faults (errors or hangs) were injected.
func (f *Faulty) Injected() int64 { return f.injected.Load() }

// Completed reports how many requests were delegated to the inner
// endpoint and returned (successfully or not) without an injected
// fault.
func (f *Faulty) Completed() int64 { return f.completed.Load() }

// Churned reports how many scheduled mutations have been applied.
func (f *Faulty) Churned() int64 { return f.churned.Load() }

// Tick advances the wrapper's virtual time to t (monotonic; earlier
// values are ignored) and applies any tick-triggered mutations that
// came due. The chaos harness calls this between queries.
func (f *Faulty) Tick(t int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t > f.tick {
		f.tick = t
	}
	f.applyDueLocked()
}

// applyDueLocked applies, in order, every not-yet-applied mutation
// whose request-count or tick trigger has been reached. Caller holds
// f.mu. Churn lands on the first ChurnTarget beneath f; when none
// exists the mutation is consumed without effect.
func (f *Faulty) applyDueLocked() {
	for i, m := range f.cfg.Mutations {
		if f.mutApplied[i] {
			continue
		}
		due := (m.AtRequest > 0 && f.seen >= m.AtRequest) ||
			(m.AtTick > 0 && f.tick >= m.AtTick)
		if !due {
			continue
		}
		f.mutApplied[i] = true
		if ct := churnTargetOf(f.Inner); ct != nil {
			ct.ApplyChurn(m.Insert, m.Delete)
		}
		f.churned.Add(1)
	}
}

// Query injects faults per the configuration, delegating otherwise.
func (f *Faulty) Query(ctx context.Context, query string) (*sparql.Results, error) {
	f.mu.Lock()
	f.seen++
	n := f.seen
	occurrence := f.texts[query]
	f.texts[query] = occurrence + 1
	// Request-count churn fires before the request is served: the
	// n-th request already sees the mutated data (and the bumped
	// version), like a write that landed just ahead of it.
	f.applyDueLocked()
	f.mu.Unlock()
	roll := draw(f.cfg.Seed, f.Name(), query, occurrence, "error")
	hangRoll := draw(f.cfg.Seed, f.Name(), query, occurrence, "hang")

	if f.cfg.Down {
		f.injected.Add(1)
		return nil, Transient(fmt.Errorf("faulty endpoint %s: connection refused (down)", f.Name()))
	}
	if f.cfg.FlapDownFor > 0 && f.cfg.FlapUpFor > 0 {
		if (n-1)%int64(f.cfg.FlapDownFor+f.cfg.FlapUpFor) < int64(f.cfg.FlapDownFor) {
			f.injected.Add(1)
			return nil, Transient(fmt.Errorf("faulty endpoint %s: connection refused (flapping, request %d)", f.Name(), n))
		}
	}
	if f.cfg.MaxRequestBytes > 0 && len(query) > f.cfg.MaxRequestBytes {
		f.injected.Add(1)
		status := f.cfg.OversizeStatus
		if status == 0 {
			status = 413
		}
		return nil, &HTTPError{Endpoint: f.Name(), Status: status, Body: fmt.Sprintf(
			"request of %d bytes exceeds limit %d", len(query), f.cfg.MaxRequestBytes)}
	}
	if f.cfg.Hang || (f.cfg.HangOn != "" && strings.Contains(query, f.cfg.HangOn)) ||
		(f.cfg.HangRate > 0 && hangRoll < f.cfg.HangRate) {
		f.injected.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if f.cfg.SlowBy > 0 {
		t := time.NewTimer(f.cfg.SlowBy)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	if n <= int64(f.cfg.FailFirst) {
		f.injected.Add(1)
		return nil, Transient(fmt.Errorf("faulty endpoint %s: injected failure %d of first %d", f.Name(), n, f.cfg.FailFirst))
	}
	if f.cfg.FailOn != "" && strings.Contains(query, f.cfg.FailOn) {
		f.injected.Add(1)
		return nil, fmt.Errorf("faulty endpoint %s: injected failure for %q", f.Name(), f.cfg.FailOn)
	}
	if f.cfg.ErrorRate > 0 && roll < f.cfg.ErrorRate {
		f.injected.Add(1)
		return nil, Transient(fmt.Errorf("faulty endpoint %s: injected failure (rate %.0f%%)", f.Name(), f.cfg.ErrorRate*100))
	}
	f.completed.Add(1)
	return f.Inner.Query(ctx, query)
}

// Stats passes through to the inner endpoint's counters when exposed.
func (f *Faulty) Stats() Stats {
	if ss, ok := f.Inner.(StatsSource); ok {
		return ss.Stats()
	}
	return Stats{}
}

// ResetStats passes through to the inner endpoint when exposed.
func (f *Faulty) ResetStats() {
	if ss, ok := f.Inner.(StatsSource); ok {
		ss.ResetStats()
	}
}

// draw returns a uniform roll in [0,1): the FNV-1a hash of the seed,
// an endpoint's name, a query text, a per-text counter n (how many
// times a fault wrapper saw the text before, or a retry's attempt
// number) and the decision's name. The same inputs draw the same roll
// whatever order concurrent requests arrive in.
func draw(seed int64, name, query string, n int64, decision string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s\x00%d\x00%s", seed, name, query, n, decision)
	return float64(h.Sum64()>>11) / (1 << 53)
}

// TickAll advances virtual time on every Faulty wrapper in eps (other
// endpoints are skipped). The chaos harness calls it between queries
// so tick-scheduled churn lands at deterministic points.
func TickAll(eps []Endpoint, t int64) {
	for _, ep := range eps {
		if f, ok := ep.(*Faulty); ok {
			f.Tick(t)
		}
	}
}

// WrapFaulty wraps every endpoint in eps with fault injection, seeding
// each wrapper deterministically from cfg.Seed and its index so the
// whole federation's fault stream is reproducible.
func WrapFaulty(eps []Endpoint, cfg FaultConfig) []Endpoint {
	out := make([]Endpoint, len(eps))
	for i, ep := range eps {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		out[i] = NewFaulty(ep, c)
	}
	return out
}
