package federation

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"lusail/internal/endpoint"
	"lusail/internal/sparql"
	"lusail/internal/stats"
)

// CacheStats snapshots one cache's counters. Hits count successful
// reuse only; Expirations count TTL-stale entries dropped on access
// (always zero for caches without expiry). Every engine cache — the
// plan facts here and the subquery-result cache in core — reports
// through this one shape so metrics bridges and debug endpoints can
// treat them uniformly.
type CacheStats struct {
	Hits, Misses, Evictions, Expirations int64
	Entries                              int
}

// Kind names the three plan-time questions an engine asks an endpoint,
// by the probe that answers them.
type Kind uint8

const (
	KindAsk   Kind = iota // does the endpoint match a pattern at all (§IV)? 1 or 0
	KindCheck             // does a LADE check query (Fig. 6) return a row? 1 or 0
	KindCount             // a pattern's cardinality at the endpoint (§V-A)
	numKinds
)

// String is the kind's label in Federation.CacheStats and the
// lusail_cache_* metric families.
func (k Kind) String() string { return [numKinds]string{"ask", "check", "count"}[k] }

// CountVar is the projection variable every COUNT probe declares; the
// decoder selects it by name rather than trusting column order.
const CountVar sparql.Var = "c"

// Truth is a boolean verdict as a fact value.
func Truth(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Question is one plan-time question about one endpoint.
type Question struct {
	EP   endpoint.Endpoint
	Kind Kind
	// Text is the probe query that answers the question at the
	// endpoint; with Kind it is the fact's key.
	Text string
	// Summary answers the question from the endpoint's harvested
	// summary (ok=false: this shape is beyond the summary). nil for a
	// question no summary can answer, such as a filtered COUNT.
	Summary func(*stats.Summary) (v float64, ok bool)
}

// Tier says where Lookup found an answer.
type Tier uint8

const (
	TierNone    Tier = iota // nowhere: the question needs a probe
	TierFact                // an earlier probe's stored answer
	TierSummary             // the endpoint's harvested summary
)

// Answer is the outcome of one probed question. OK is false when the
// probe failed and the query's degradation policy absorbed the failure:
// the caller applies its stage's conservative default.
type Answer struct {
	Value float64
	OK    bool
}

// factsPerEndpoint bounds the facts one endpoint's slot retains. The
// workloads at hand re-read a few hundred facts per endpoint; what
// grows without bound is filtered COUNT probes, whose text is unique
// per query and never read again.
const factsPerEndpoint = 2048

type factKey struct {
	kind Kind
	text string
}

// fact is immutable once stored except for used, so readers take its
// value outside the slot lock.
type fact struct {
	value float64
	used  atomic.Bool // read since it was stored or last promoted
}

// slot is everything the engine knows about one endpoint.
type slot struct {
	mu sync.RWMutex
	// gen fences in-flight stores: dropping the slot advances it, and a
	// store captured at an older generation is refused — its probe or
	// harvest may have read data that no longer exists.
	gen uint64
	// Facts live in two generations. Stores go to young; when young is
	// half the bound the generations rotate: old facts read since their
	// last rotation are promoted into the new young, the rest are
	// evicted. Reads only set a flag, so the hit path takes no write
	// lock.
	young, old map[factKey]*fact
	summary    *stats.Summary
	// version is the endpoint's data version as the last applied probe
	// reported it; versioned is false until a probe reports one, and for
	// an endpoint that exposes none. probeSeq numbers that probe: a
	// result from a probe issued earlier is older news and is ignored.
	version   uint64
	versioned bool
	probeSeq  uint64
}

// Knowledge is the engine's plan knowledge, one slot per endpoint: the
// answers of earlier ASK, check and COUNT probes (the caches the paper
// enables "for all systems", §VI-B) and the harvested statistics
// summary. Questions resolve fact → summary → probe: Lookup is the local
// part, Probe the remote one. A slot's generation is also the one
// invalidation state behind everything else the engine retains: the
// subquery-result cache stamps its entries with their sources'
// generations (Gen) too. The slot also holds the endpoint's tracked data
// version, the one version authority: Refresh drops a slot whose version
// moved, and a summary answers only while its stamp matches it.
//
// All methods are safe for concurrent use and nil-safe: a nil
// *Knowledge knows and retains nothing, so every question is probed —
// how the planners run with plan caches disabled.
type Knowledge struct {
	// slots is fixed at construction, so finding a slot takes no lock.
	slots map[string]*slot
	eps   []endpoint.Endpoint // what Refresh probes

	hits, misses, evictions       [numKinds]atomic.Int64
	answers                       [numKinds]atomic.Int64
	pairAnswers                   atomic.Int64
	sumHits, sumMisses, sumFenced atomic.Int64
	// probeSeq numbers version probes in issue order.
	probeSeq                     atomic.Uint64
	probes, probeErrors, changes atomic.Int64
}

// NewKnowledge returns an empty store over eps.
func NewKnowledge(eps []endpoint.Endpoint) *Knowledge {
	k := &Knowledge{slots: make(map[string]*slot, len(eps)), eps: eps}
	for _, ep := range eps {
		k.slots[ep.Name()] = &slot{young: map[factKey]*fact{}}
	}
	return k
}

func (k *Knowledge) slot(name string) *slot {
	if k == nil {
		return nil
	}
	return k.slots[name]
}

// Lookup answers q from what is already known: a stored fact first,
// then the endpoint's summary. TierNone means q must be probed.
func (k *Knowledge) Lookup(q *Question) (float64, Tier) {
	name := q.EP.Name()
	s := k.slot(name)
	if s == nil {
		return 0, TierNone
	}
	key := factKey{q.Kind, q.Text}
	s.mu.RLock()
	f := s.young[key]
	if f == nil {
		f = s.old[key]
	}
	sum, stale := s.summary, s.stale()
	s.mu.RUnlock()
	if f != nil {
		if !f.used.Load() {
			f.used.Store(true)
		}
		k.hits[q.Kind].Add(1)
		return f.value, TierFact
	}
	k.misses[q.Kind].Add(1)
	if q.Summary != nil {
		if sum = k.current(sum, stale); sum != nil {
			if v, ok := q.Summary(sum); ok {
				k.answers[q.Kind].Add(1)
				return v, TierSummary
			}
		}
	}
	return 0, TierNone
}

// PairCard answers the one question with no probe behind it: the number
// of distinct values of v joining patterns a and b at the endpoint, from
// its summary's predicate-pair counts.
func (k *Knowledge) PairCard(name string, v sparql.Var, a, b sparql.TriplePattern) (c float64, ok bool) {
	s := k.slot(name)
	if s == nil {
		return 0, false
	}
	s.mu.RLock()
	sum, stale := s.summary, s.stale()
	s.mu.RUnlock()
	if sum = k.current(sum, stale); sum != nil {
		if c, ok = sum.PairCard(v, a, b); ok {
			k.pairAnswers.Add(1)
		}
	}
	return c, ok
}

// stale reports (s.mu held) whether the held summary is stamped with
// another data version than the one the endpoint last reported: it
// describes data that has changed. Refresh drops such a summary with the
// slot when it sees the change; the stamp check covers a harvest that
// read the new version before Refresh did. An unversioned endpoint's
// summary is served unverified.
func (s *slot) stale() bool {
	sum := s.summary
	return sum != nil && sum.Versioned && s.versioned && sum.Version != s.version
}

// current counts a summary lookup's outcome and returns the summary it
// may answer from: nil when none is held or the held one is stale.
func (k *Knowledge) current(sum *stats.Summary, stale bool) *stats.Summary {
	switch {
	case sum == nil:
		k.sumMisses.Add(1)
		return nil
	case stale:
		k.sumFenced.Add(1)
		return nil
	}
	k.sumHits.Add(1)
	return sum
}

// Gen captures the endpoint's invalidation generation. Whoever is about
// to learn something about the endpoint — Probe before it sends, a
// harvest or a subquery computation before it starts — captures it first
// and stores at it.
func (k *Knowledge) Gen(name string) uint64 {
	s := k.slot(name)
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// lockAt write-locks the slot for a store captured at gen. It reports
// false, with the slot unlocked, when the slot was dropped since.
func (s *slot) lockAt(gen uint64) bool {
	s.mu.Lock()
	if s.gen != gen {
		s.mu.Unlock()
		return false
	}
	return true
}

// StoreSummary installs a harvested summary captured at gen, and
// reports false when the endpoint was invalidated since: the summary
// may describe data the invalidator knows is gone. A nil store keeps
// nothing and refuses nothing.
func (k *Knowledge) StoreSummary(gen uint64, sum *stats.Summary) bool {
	s := k.slot(sum.Endpoint)
	if s == nil {
		return true
	}
	if !s.lockAt(gen) {
		return false
	}
	s.summary = sum
	s.mu.Unlock()
	return true
}

func (k *Knowledge) storeFact(name string, gen uint64, key factKey, v float64) {
	s := k.slot(name)
	if s == nil || !s.lockAt(gen) {
		return
	}
	defer s.mu.Unlock()
	if _, held := s.young[key]; !held && len(s.young) >= factsPerEndpoint/2 {
		k.rotate(s)
	}
	s.young[key] = &fact{value: v}
	delete(s.old, key)
}

// rotate ages the slot's generations (s.mu held): young becomes old, and
// of the previous old the facts read since their last rotation start the
// new young — at most a quarter of the bound of them, so that young
// (filled to half) plus old never exceed it.
func (k *Knowledge) rotate(s *slot) {
	promoted := make(map[factKey]*fact, len(s.old)/2)
	for key, f := range s.old {
		if f.used.Load() && len(promoted) < factsPerEndpoint/4 {
			promoted[key] = &fact{value: f.value}
		} else {
			k.evictions[key.kind].Add(1)
		}
	}
	s.young, s.old = promoted, s.young
}

// Invalidate forgets everything about one endpoint — its facts and its
// summary — and fences the stores of probes and harvests already in
// flight against it. Other endpoints' slots, and stores in flight for
// them, are untouched.
func (k *Knowledge) Invalidate(name string) {
	if s := k.slot(name); s != nil {
		s.drop()
	}
}

// Clear invalidates every endpoint.
func (k *Knowledge) Clear() {
	if k == nil {
		return
	}
	for _, s := range k.slots {
		s.drop()
	}
}

func (s *slot) drop() {
	s.mu.Lock()
	s.clear()
	s.mu.Unlock()
}

// clear forgets the slot's facts and summary and advances its
// generation (s.mu held). The tracked data version stays.
func (s *slot) clear() {
	s.gen++
	s.young, s.old, s.summary = map[factKey]*fact{}, nil, nil
}

// Refresh probes every endpoint's data version concurrently
// (endpoint.DataVersionOf) and drops the slot of each endpoint whose
// version moved, in the critical section that records the new version:
// no reader sees the new version before the generation has moved. The
// engine calls it at the start of each query. A probe error never fails
// the query: the slot keeps its last version, nothing is dropped, and
// the error is counted. An endpoint that exposes no version is
// unversioned, and its slot is never dropped for it. Overlapping calls
// apply in probe issue order, so a slow probe cannot roll a version
// back. Versions are compared for equality only: a restarted endpoint
// may reset its counter.
func (k *Knowledge) Refresh(ctx context.Context) {
	if k == nil {
		return
	}
	var wg sync.WaitGroup
	for _, ep := range k.eps {
		wg.Add(1)
		go func(ep endpoint.Endpoint) {
			defer wg.Done()
			seq := k.probeSeq.Add(1)
			v, ok, err := endpoint.DataVersionOf(ctx, ep)
			k.probes.Add(1)
			if err != nil {
				k.probeErrors.Add(1)
				return
			}
			if k.slots[ep.Name()].observe(seq, v, ok) {
				k.changes.Add(1)
			}
		}(ep)
	}
	wg.Wait()
}

// observe applies the result of version probe seq (ok=false: the
// endpoint exposes no version) and reports whether the version moved,
// which drops the slot.
func (s *slot) observe(seq, v uint64, ok bool) (moved bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq < s.probeSeq {
		return false // a later-issued probe already applied
	}
	s.probeSeq = seq
	moved = ok && s.versioned && v != s.version
	if moved {
		s.clear()
	}
	s.version, s.versioned = v, ok
	return moved
}

// EndpointVersion is one endpoint's tracked data version, for metrics
// exposition (lusail_endpoint_data_version).
type EndpointVersion struct {
	Name      string
	Version   uint64
	Versioned bool
}

// CoherenceStats snapshots the version fence for metrics export.
type CoherenceStats struct {
	Endpoints   []EndpointVersion
	Probes      int64
	ProbeErrors int64
	Changes     int64
	// Fenced counts subquery-cache entries dropped at lookup because a
	// source endpoint was invalidated after they were computed.
	Fenced int64
}

// CoherenceStats snapshots each endpoint's tracked version, sorted by
// name, and the probe counters. Fenced is the subquery cache's to fill
// in.
func (k *Knowledge) CoherenceStats() CoherenceStats {
	if k == nil {
		return CoherenceStats{}
	}
	st := CoherenceStats{
		Endpoints:   make([]EndpointVersion, 0, len(k.slots)),
		Probes:      k.probes.Load(),
		ProbeErrors: k.probeErrors.Load(),
		Changes:     k.changes.Load(),
	}
	for name, s := range k.slots {
		s.mu.RLock()
		st.Endpoints = append(st.Endpoints, EndpointVersion{Name: name, Version: s.version, Versioned: s.versioned})
		s.mu.RUnlock()
	}
	sort.Slice(st.Endpoints, func(i, j int) bool { return st.Endpoints[i].Name < st.Endpoints[j].Name })
	return st
}

// Probe sends the questions Lookup could not answer to their endpoints,
// decodes the replies and stores them as facts at the generation
// captured before sending. A failed probe that dg absorbs is recorded
// as a dropped contribution at stage and answered !OK; it stores
// nothing, because it reflects a fault, not the endpoint's data. The
// first failure dg cannot absorb (any failure, for a nil dg) cancels
// the probes still in flight or queued and is returned, and the batch
// stores nothing. answers is parallel to qs.
func (k *Knowledge) Probe(ctx context.Context, dg *endpoint.Degrade, stage string, qs []Question) ([]Answer, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	tasks := make([]Task, len(qs))
	gens := make([]uint64, len(qs))
	for i, q := range qs {
		tasks[i] = Task{EP: q.EP, Query: q.Text}
		gens[i] = k.Gen(q.EP.Name())
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	answers := make([]Answer, len(qs))
	var firstErr error
	for r := range Run(ctx, tasks) {
		if firstErr != nil {
			continue // the batch already failed; this is its cancellation
		}
		q, name := qs[r.Index], qs[r.Index].EP.Name()
		err := r.Err
		var v float64
		if err == nil {
			switch q.Kind {
			case KindAsk:
				v = Truth(r.Res.Ask)
			case KindCheck:
				v = Truth(r.Res.Len() > 0)
			case KindCount:
				v, err = countValue(r.Res)
			}
		}
		switch {
		case err == nil:
			answers[r.Index] = Answer{Value: v, OK: true}
		case dg.Absorb(err):
			dg.Drop(name, "", stage, err)
		default:
			firstErr = fmt.Errorf("%s at %s: %w", stage, name, err)
			cancel()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for i, a := range answers {
		if a.OK {
			k.storeFact(qs[i].EP.Name(), gens[i], factKey{qs[i].Kind, qs[i].Text}, a.Value)
		}
	}
	return answers, nil
}

// countValue extracts the declared count column from a COUNT probe's
// reply. The row may carry extra columns (an endpoint echoing projected
// variables alongside the aggregate), so the lookup is by name — never
// by whichever column map iteration yields first.
func countValue(res *sparql.Results) (float64, error) {
	if res.Len() != 1 {
		return 0, fmt.Errorf("count query returned %d rows", res.Len())
	}
	t, ok := res.Rows[0][CountVar]
	if !ok {
		return 0, fmt.Errorf("count query result is missing the ?%s column", CountVar)
	}
	n, err := strconv.ParseFloat(t.Value, 64)
	if err != nil {
		return 0, fmt.Errorf("bad count literal %q", t.Value)
	}
	return n, nil
}

// Stats snapshots one kind's fact counters.
func (k *Knowledge) Stats(kind Kind) CacheStats {
	if k == nil {
		return CacheStats{}
	}
	st := CacheStats{
		Hits:      k.hits[kind].Load(),
		Misses:    k.misses[kind].Load(),
		Evictions: k.evictions[kind].Load(),
	}
	for _, s := range k.slots {
		s.mu.RLock()
		for _, gen := range [2]map[factKey]*fact{s.young, s.old} {
			for key := range gen {
				if key.kind == kind {
					st.Entries++
				}
			}
		}
		s.mu.RUnlock()
	}
	return st
}

// SummaryStats fills in the fields of st the store keeps: summaries
// held, summary lookup outcomes, and questions answered from summaries.
func (k *Knowledge) SummaryStats(st *stats.ServiceStats) {
	if k == nil {
		return
	}
	for _, s := range k.slots {
		s.mu.RLock()
		if s.summary != nil {
			st.Summaries++
		}
		s.mu.RUnlock()
	}
	st.Hits, st.Misses, st.Fenced = k.sumHits.Load(), k.sumMisses.Load(), k.sumFenced.Load()
	st.AskAnswers = k.answers[KindAsk].Load()
	st.CheckAnswers = k.answers[KindCheck].Load()
	st.CardAnswers = k.answers[KindCount].Load()
	st.PairAnswers = k.pairAnswers.Load()
}
