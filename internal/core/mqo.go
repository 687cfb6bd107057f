package core

import (
	"container/list"
	"sort"
	"strings"
	"sync"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/sparql"
	"lusail/internal/trace"

	"context"
)

// SubqueryCache shares materialized subquery results across queries —
// the multi-query optimization the paper lists among Lusail's
// supported features (§V), as a persistent cross-query tier. Two
// queries that decompose to the same subquery over the same sources
// execute it once; the cache is single-flight, so concurrent callers
// wait for an in-flight execution instead of duplicating it, and
// completed results are retained (with optional TTL expiry and LRU
// eviction bounds) for later queries.
//
// Correctness contract:
//
//   - Keys are stable: endpoint identity is the endpoint name, not its
//     position in a particular engine's endpoint list (SubqueryKey).
//   - Results are fenced by the plan knowledge's per-endpoint
//     generations: a computation captures its sources' generations
//     before it starts, and its result is stored, joined by waiters and
//     served only while every one of them is still current. Invalidating
//     an endpoint is therefore one generation bump in the knowledge
//     store; the cache holds no invalidation state of its own.
//   - Reads are copies: every hit returns a Relation whose Vars, Rows,
//     and Dropped slices are private to the caller (the Binding maps
//     are shared — they are never mutated after creation), so
//     concurrent consumers can sort, re-slice, and re-stamp their copy
//     without racing each other.
//   - Degradation-aware: a partial relation (non-empty Dropped,
//     computed under an absorbing policy) is only served to callers
//     that declare they can absorb it by merging the drop records into
//     their own completeness report. A strict caller (DegradeFail, no
//     policy) recomputes instead, and a complete recomputation
//     replaces the partial entry.
//   - Errors are not cached and waiters retry: a caller that was
//     blocked on a computation that failed re-enters the compute loop
//     (bounded) instead of receiving the stale error, and only
//     successful reuse counts as a hit.
type SubqueryCache struct {
	mu         sync.Mutex
	inflight   map[string]*sqCall
	entries    map[string]*list.Element
	lru        *list.List // front = most recently used
	maxEntries int
	ttl        time.Duration
	now        func() time.Time
	// onWait, when non-nil, runs just before a Do call blocks on an
	// in-flight computation — a deterministic join signal for tests that
	// would otherwise sleep and hope the waiter arrived.
	onWait func(key string)
	// know supplies the generations that fence entries and in-flight
	// calls. A nil store has every generation at 0, so nothing is fenced.
	know *federation.Knowledge

	hits, misses, evictions, expirations, fenced int64
	// hitEx/missEx link the counters to the most recent sampled traced
	// query that hit or missed, for OpenMetrics exemplar exposition.
	hitEx, missEx *trace.Exemplar
}

// sqCall is one in-flight computation; waiters block on ready.
type sqCall struct {
	ready chan struct{}
	rel   *Relation
	err   error
	stamp stamp
}

// sqEntry is one completed, retained result.
type sqEntry struct {
	key     string
	rel     *Relation
	expires time.Time // zero = never
	stamp   stamp
}

// stamp is the generations a computation's source endpoints had when it
// began. Its result is current while each of them still has that
// generation; a generation that moved means the endpoint was invalidated
// since, and what the computation read may be gone.
type stamp []sourceGen

type sourceGen struct {
	name string
	gen  uint64
}

// stampOf captures the current generations of the named endpoints.
func (c *SubqueryCache) stampOf(srcs []string) stamp {
	s := make(stamp, len(srcs))
	for i, name := range srcs {
		s[i] = sourceGen{name, c.know.Gen(name)}
	}
	return s
}

// current reports whether no endpoint in s was invalidated since s was
// captured.
func (c *SubqueryCache) current(s stamp) bool {
	for _, g := range s {
		if c.know.Gen(g.name) != g.gen {
			return false
		}
	}
	return true
}

// CacheStats snapshots one cache's counters. Hits count successful
// reuse only (error deliveries and policy-bypassed partials are not
// hits); Expirations count TTL-stale entries dropped on access. The
// struct is shared with the plan knowledge's per-kind fact counters
// (federation.Knowledge), so every engine cache reports through one
// shape.
type CacheStats = federation.CacheStats

// NewSubqueryCache returns a cache fenced by know's per-endpoint
// generations (nil: unfenced), holding at most maxEntries completed
// results (0 = unbounded), each valid for ttl (0 = forever).
// Least-recently-used entries are evicted past the bound.
func NewSubqueryCache(know *federation.Knowledge, maxEntries int, ttl time.Duration) *SubqueryCache {
	return &SubqueryCache{
		inflight:   map[string]*sqCall{},
		entries:    map[string]*list.Element{},
		lru:        list.New(),
		maxEntries: maxEntries,
		ttl:        ttl,
		now:        time.Now,
		know:       know,
	}
}

// keySep separates the endpoint names inside a cache key; keyAt
// separates the query text from the source list.
const (
	keySep = "\x1f"
	keyAt  = "\x00@"
)

// SubqueryKey identifies a subquery execution across engines,
// processes, and endpoint orderings: the canonicalized subquery text
// (sq rendered, as the caller already has it) plus the sorted stable
// identities (names) of its source endpoints,
// which it also returns — the endpoints whose generations fence the
// result. Positional indexes are NOT a stable identity — index 0 of one
// federation is a different endpoint than index 0 of another, so a
// cache that outlives one engine's endpoint list must key on names.
func SubqueryKey(sq *Subquery, text string, eps []endpoint.Endpoint) (key string, srcs []string) {
	srcs = make([]string, len(sq.Sources))
	for i, ei := range sq.Sources {
		srcs[i] = eps[ei].Name()
	}
	sort.Strings(srcs)
	return text + keyAt + strings.Join(srcs, keySep), srcs
}

// snapshotRelation returns a defensive copy of rel: fresh Vars, Rows,
// and Dropped slices over the shared (immutable) Binding maps. Callers
// may sort, truncate, or re-stamp the copy freely.
func snapshotRelation(rel *Relation) *Relation {
	return &Relation{
		Vars:       append([]sparql.Var(nil), rel.Vars...),
		Rows:       append([]sparql.Binding(nil), rel.Rows...),
		Partitions: rel.Partitions,
		Dropped:    append([]sparql.Dropped(nil), rel.Dropped...),
	}
}

// maxWaiterRetries bounds how many failed computations a single Do
// call will wait out before surfacing the last error: a livelock
// backstop, since each retry can itself be cancelled by yet another
// sibling. Retries are only taken for computations that failed while
// we were blocked on them, and only while our own context is live; a
// computation we led returns its error directly (its failure is ours,
// and its rows may already be in the caller's stream).
const maxWaiterRetries = 64

// Do returns the cached relation for key, or runs compute while
// concurrent callers for the same key wait. srcs names the endpoints
// compute reads (SubqueryKey returns them): their generations, captured
// before compute starts, fence the result. canPartial declares
// whether THIS caller can absorb a partial (degraded) cached relation
// by merging its Dropped records into its own completeness state; a
// caller that cannot never sees an incomplete entry — it recomputes,
// and a complete recomputation replaces the partial entry.
//
// The returned relation is a private copy on reuse and the computed
// value itself when this call led the computation; shared reports
// which. Failed computations are not cached: while its own ctx is
// live, a waiter re-enters the compute loop (bounded by
// maxWaiterRetries) instead of receiving the stale error, and only
// successful reuse counts as a hit. A waiter whose own ctx ends stops
// waiting. A computation that began before one of its sources was
// invalidated is neither joined nor stored: a caller that finds one
// computes afresh. A nil cache computes directly.
//
// whole declares that compute returns the relation with all its rows.
// A caller whose rows stream away as they arrive (whole = false) has
// nothing to store or to hand a waiter: it still gets a retained entry
// replayed, and otherwise computes for itself alone.
func (c *SubqueryCache) Do(ctx context.Context, key string, srcs []string, canPartial, whole bool, compute func() (*Relation, error)) (rel *Relation, shared bool, err error) {
	if c == nil {
		rel, err = compute()
		return rel, false, err
	}
	ex := trace.NewExemplar(trace.SpanFrom(ctx), 1)
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if rel, ok := c.lookupLocked(key, canPartial); ok {
			c.hits++
			if ex != nil {
				c.hitEx = ex
			}
			c.mu.Unlock()
			return snapshotRelation(rel), true, nil
		}
		if call, ok := c.inflight[key]; ok && whole && c.current(call.stamp) {
			c.mu.Unlock()
			if c.onWait != nil {
				c.onWait(key)
			}
			select {
			case <-call.ready:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if call.err != nil {
				// The computation we waited on failed — possibly a sibling
				// query's fail-fast cancelling the shared execution. Its
				// failure is not necessarily ours: re-enter the loop and
				// (re)compute under our own conditions.
				if attempt >= maxWaiterRetries || ctx.Err() != nil {
					return nil, false, call.err
				}
				continue
			}
			if len(call.rel.Dropped) == 0 || canPartial {
				c.mu.Lock()
				c.hits++
				if ex != nil {
					c.hitEx = ex
				}
				c.mu.Unlock()
				return snapshotRelation(call.rel), true, nil
			}
			// Partial result this caller cannot absorb: re-enter the
			// loop and compute fresh under the lock (lookupLocked
			// refuses the stored partial entry to strict callers too).
			continue
		}
		c.misses++
		if ex != nil {
			c.missEx = ex
		}
		if !whole {
			c.mu.Unlock()
			rel, err = compute()
			return rel, false, err
		}
		call := &sqCall{ready: make(chan struct{}), stamp: c.stampOf(srcs)}
		c.inflight[key] = call
		c.mu.Unlock()

		call.rel, call.err = compute()
		c.mu.Lock()
		if c.inflight[key] == call {
			delete(c.inflight, key)
		}
		if call.err == nil && c.current(call.stamp) {
			c.storeLocked(key, snapshotRelation(call.rel), call.stamp)
		}
		c.mu.Unlock()
		close(call.ready)
		return call.rel, false, call.err
	}
}

// lookupLocked finds a live entry for key: an expired entry, or one a
// source of which was invalidated since it was computed, is dropped
// (and counted), and a partial entry is refused to strict callers.
// Caller holds c.mu.
func (c *SubqueryCache) lookupLocked(key string, canPartial bool) (*Relation, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*sqEntry)
	switch {
	case !e.expires.IsZero() && !c.now().Before(e.expires):
		c.removeLocked(el)
		c.expirations++
		return nil, false
	case !c.current(e.stamp):
		c.removeLocked(el)
		c.fenced++
		return nil, false
	case len(e.rel.Dropped) > 0 && !canPartial:
		return nil, false
	}
	c.lru.MoveToFront(el)
	return e.rel, true
}

// storeLocked inserts (or replaces) the entry for key, computed at s,
// and evicts past the LRU bound. Caller holds c.mu.
func (c *SubqueryCache) storeLocked(key string, rel *Relation, s stamp) {
	if el, ok := c.entries[key]; ok {
		c.lru.Remove(el)
		delete(c.entries, key)
	}
	e := &sqEntry{key: key, rel: rel, stamp: s}
	if c.ttl > 0 {
		e.expires = c.now().Add(c.ttl)
	}
	c.entries[key] = c.lru.PushFront(e)
	for c.maxEntries > 0 && c.lru.Len() > c.maxEntries {
		c.removeLocked(c.lru.Back())
		c.evictions++
	}
}

// removeLocked drops one entry. Caller holds c.mu.
func (c *SubqueryCache) removeLocked(el *list.Element) {
	e := el.Value.(*sqEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
}

// Clear drops every retained entry at once. It fences nothing by
// itself: a full invalidation also clears the plan knowledge, whose
// advanced generations refuse the computations still in flight.
func (c *SubqueryCache) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*list.Element{}
	c.lru = list.New()
}

// Hits reports how many subquery executions the cache saved
// (successful reuse only).
func (c *SubqueryCache) Hits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.hits)
}

// Len reports the number of retained subquery results.
func (c *SubqueryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats snapshots the cache's counters.
func (c *SubqueryCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Expirations: c.expirations,
		Entries: len(c.entries),
	}
}

// fencedEntries counts the entries lookups dropped because a source
// endpoint was invalidated after they were computed.
func (c *SubqueryCache) fencedEntries() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fenced
}

// Exemplars snapshots the cache's hit and miss exemplars: the most
// recent sampled traced query on each path, nil where none yet.
func (c *SubqueryCache) Exemplars() (hit, miss *trace.Exemplar) {
	if c == nil {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitEx, c.missEx
}
