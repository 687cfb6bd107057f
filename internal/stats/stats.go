// Package stats implements Lusail's offline statistics service: a
// background harvester that builds per-endpoint summaries — predicate
// cardinalities, class counts, and predicate-pair join summaries — via
// paged SPARQL aggregation queries over the ordinary endpoint
// interface (it needs no access to the backing store, so it works
// against remote HTTP endpoints exactly as against Local ones).
//
// Summaries generalize the SPLENDID VoID extractor in two ways: they
// are harvested through the query interface rather than a store walk,
// and they carry predicate-pair counts (how many distinct values join
// two predicates in the star / chain / object-object shapes) that
// answer LADE containment checks and tighten join cardinality
// estimates without contacting any endpoint at plan time.
//
// Every summary is stamped with the endpoint's data version at
// harvest time. The package only produces summaries and says what they
// can answer; holding them, fencing them against the current version
// and invalidating them on churn is the plan-knowledge store's job
// (federation.Knowledge, the Sink here).
package stats

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// Config tunes the statistics service.
type Config struct {
	// Calibrate enables the q-error feedback loop: observed
	// estimated-vs-actual subquery cardinalities adjust per-(endpoint,
	// predicate) correction factors that rescale future estimates.
	Calibrate bool
}

// PredicateStats are the per-predicate cardinalities of one endpoint.
type PredicateStats struct {
	// Triples is the number of triples with this predicate.
	Triples float64
	// DistinctSubjects / DistinctObjects are COUNT(DISTINCT ?s) /
	// COUNT(DISTINCT ?o) over those triples.
	DistinctSubjects float64
	DistinctObjects  float64
}

// pair is an unordered or ordered predicate pair, depending on the
// matrix it keys.
type pair struct{ p, q string }

// Summary is one endpoint's harvested statistics.
type Summary struct {
	Endpoint string
	// Total is the endpoint's triple count.
	Total float64
	// Predicates covers every predicate at the endpoint (paged
	// discovery), so absence here proves absence at the endpoint —
	// the property LADE's containment verdicts rely on.
	Predicates map[string]PredicateStats
	// Classes maps each rdf:type object to its distinct-instance
	// count; like Predicates, it is complete.
	Classes map[string]float64

	// JoinPreds are the predicates covered by the pair matrices.
	joinPreds map[string]bool
	// star[p,q] (unordered) = COUNT(DISTINCT ?x) { ?x p ?a . ?x q ?b }
	// chain[p,q] (ordered)  = COUNT(DISTINCT ?x) { ?s p ?x . ?x q ?b }
	// obj[p,q] (unordered)  = COUNT(DISTINCT ?x) { ?s p ?x . ?t q ?x }
	star, chain, obj map[pair]float64

	// Version is the endpoint's data version at harvest time;
	// Versioned is false for endpoints that track none (their
	// summaries cannot be fenced and are served unverified, the same
	// leniency the coherence layer extends to unversioned endpoints).
	Version   uint64
	Versioned bool
	// HarvestedAt stamps the harvest; Queries counts the aggregation
	// queries it issued.
	HarvestedAt time.Time
	Queries     int
}

// Star returns the star-join pair count, symmetric in p and q.
func (s *Summary) Star(p, q string) (float64, bool) {
	if p > q {
		p, q = q, p
	}
	v, ok := s.star[pair{p, q}]
	return v, ok
}

// Chain returns the chain pair count: distinct values that are object
// of p and subject of q.
func (s *Summary) Chain(p, q string) (float64, bool) {
	v, ok := s.chain[pair{p, q}]
	return v, ok
}

// Obj returns the object-object pair count, symmetric in p and q.
func (s *Summary) Obj(p, q string) (float64, bool) {
	if p > q {
		p, q = q, p
	}
	v, ok := s.obj[pair{p, q}]
	return v, ok
}

// ServiceStats is the statistics snapshot behind /debug/stats and the
// lusail_stats_* metric families. The harvest and calibration fields
// are this package's; the summary fields (held, lookup outcomes,
// answers) are filled in by the store that holds the summaries.
type ServiceStats struct {
	// Summaries is the number of endpoint summaries currently held.
	Summaries int
	// Hits / Misses count summary lookups; Fenced counts lookups
	// refused because the endpoint's data version moved past the
	// summary's.
	Hits, Misses, Fenced int64
	// Refreshes / RefreshErrors count harvest attempts; Discards
	// counts harvests thrown away because the endpoint churned
	// mid-harvest or was invalidated before the store.
	Refreshes, RefreshErrors, Discards int64
	// HarvestQueries totals the aggregation queries sent by harvests.
	HarvestQueries int64
	// CardAnswers / AskAnswers / CheckAnswers / PairAnswers count
	// plan-time questions answered from summaries instead of probes.
	CardAnswers, AskAnswers, CheckAnswers, PairAnswers int64
	// CalibrationKeys is the number of learned correction factors;
	// Observations counts feedback samples applied.
	CalibrationKeys int
	Observations    int64
}

// Sink is where harvested summaries go. Gen is captured before a
// harvest starts; StoreSummary reports false when the endpoint was
// invalidated since, and the harvest is discarded.
type Sink interface {
	Gen(endpoint string) uint64
	StoreSummary(gen uint64, sum *Summary) bool
}

// Service is the harvester and the calibrator. All methods are safe
// for concurrent use and nil-safe, so the engine can call through an
// unconfigured service unconditionally.
type Service struct {
	eps  []endpoint.Endpoint
	sink Sink
	cal  *calibrator

	refreshes, refreshErrs, discards, harvestQueries atomic.Int64
}

// New builds a statistics service harvesting eps into sink.
func New(eps []endpoint.Endpoint, cfg Config, sink Sink) *Service {
	s := &Service{eps: eps, sink: sink}
	if cfg.Calibrate {
		s.cal = newCalibrator()
	}
	return s
}

// Refresh harvests every endpoint sequentially. The first error is
// returned, but remaining endpoints are still harvested — one
// unreachable endpoint must not starve the rest of their summaries.
func (s *Service) Refresh(ctx context.Context) error {
	if s == nil {
		return nil
	}
	var first error
	for _, ep := range s.eps {
		if err := s.refresh(ctx, ep); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// refresh harvests one endpoint's summary. The harvest is fenced
// twice: against the endpoint's data version (probed before and after
// the aggregation queries — a mid-harvest churn yields a torn summary,
// which is discarded) and against the sink's invalidation generation
// (an invalidation racing the harvest refuses the store).
func (s *Service) refresh(ctx context.Context, ep endpoint.Endpoint) error {
	name := ep.Name()
	gen := s.sink.Gen(name)
	s.refreshes.Add(1)

	v0, versioned, err := endpoint.DataVersionOf(ctx, ep)
	if err != nil {
		s.refreshErrs.Add(1)
		return fmt.Errorf("stats: version probe %s: %w", name, err)
	}
	sum, err := harvest(ctx, ep)
	s.harvestQueries.Add(int64(sum.Queries))
	if err != nil {
		s.refreshErrs.Add(1)
		return fmt.Errorf("stats: harvest %s: %w", name, err)
	}
	if versioned {
		v1, stillVersioned, err := endpoint.DataVersionOf(ctx, ep)
		if err != nil {
			s.refreshErrs.Add(1)
			return fmt.Errorf("stats: version re-probe %s: %w", name, err)
		}
		if !stillVersioned || v1 != v0 {
			// The data moved under the harvest: the summary mixes
			// pre- and post-churn counts and must not be served.
			s.discards.Add(1)
			return fmt.Errorf("stats: %s churned during harvest (v%d -> v%d)", name, v0, v1)
		}
	}
	sum.Version, sum.Versioned = v0, versioned
	if !s.sink.StoreSummary(gen, sum) {
		// Invalidated while harvesting: this summary may describe
		// data the invalidator knows is gone.
		s.discards.Add(1)
		return fmt.Errorf("stats: %s invalidated during harvest", name)
	}
	return nil
}

// predOf extracts a constant predicate IRI; ok=false for variable
// predicates.
func predOf(tp sparql.TriplePattern) (string, bool) {
	if tp.P.IsVar() {
		return "", false
	}
	return tp.P.Term.Value, true
}

// PatternCard estimates the cardinality of one triple pattern at the
// endpoint. ok=false means the summary has no statistics for the shape
// and the caller should fall back to a COUNT probe.
func (sum *Summary) PatternCard(tp sparql.TriplePattern) (float64, bool) {
	if tp.P.IsVar() {
		// ?s ?p ?o is the whole endpoint; any constant with a variable
		// predicate is beyond the summary.
		if tp.S.IsVar() && tp.O.IsVar() {
			return sum.Total, true
		}
		return 0, false
	}
	p := tp.P.Term.Value
	ps, present := sum.Predicates[p]
	if !present {
		// Discovery is complete: an absent predicate has zero triples.
		return 0, true
	}
	switch {
	case tp.S.IsVar() && tp.O.IsVar():
		return ps.Triples, true
	case p == rdf.RDFType && tp.S.IsVar() && !tp.O.IsVar():
		// Class membership counts are exact (classes are enumerated).
		return sum.Classes[tp.O.Term.Value], true
	case tp.S.IsVar() && !tp.O.IsVar():
		// Average fan-in per object value.
		if ps.DistinctObjects <= 0 {
			return 0, false
		}
		return ps.Triples / ps.DistinctObjects, true
	case !tp.S.IsVar() && tp.O.IsVar():
		// Average fan-out per subject.
		if ps.DistinctSubjects <= 0 {
			return 0, false
		}
		return ps.Triples / ps.DistinctSubjects, true
	default:
		// Fully ground pattern: expected matches under independence.
		if ps.DistinctSubjects <= 0 || ps.DistinctObjects <= 0 {
			return 0, false
		}
		return ps.Triples / (ps.DistinctSubjects * ps.DistinctObjects), true
	}
}

// Relevant answers the source-selection ASK "does this endpoint hold
// any match for tp?" from the summary, in the cases where the summary
// is provably exact: a predicate (or rdf:type class) absent from the
// complete discovery proves irrelevance, and an all-variable pattern
// over a present predicate proves relevance. Constant subjects or
// non-class objects need a real ASK. ok=false falls back to the probe.
func (sum *Summary) Relevant(tp sparql.TriplePattern) (relevant, ok bool) {
	if tp.P.IsVar() {
		if tp.S.IsVar() && tp.O.IsVar() {
			return sum.Total > 0, true
		}
		return false, false
	}
	p := tp.P.Term.Value
	if _, present := sum.Predicates[p]; !present {
		return false, true
	}
	if p == rdf.RDFType && tp.S.IsVar() && !tp.O.IsVar() && tp.O.Term.IsIRI() {
		// Classes are enumerated, so membership is definitive both ways.
		return sum.Classes[tp.O.Term.Value] > 0, true
	}
	if tp.S.IsVar() && tp.O.IsVar() {
		return true, true
	}
	return false, false
}

// CheckNonEmpty answers a LADE missing-instances check from the pair
// matrices: "does any value of v matching tpFrom at the endpoint lack
// a local tpTo triple?" (the FILTER NOT EXISTS probe of Fig. 6).
//
// The containment arithmetic: let F be the number of distinct values
// in v's role of tpFrom's predicate, and C the pair count of values
// appearing in both roles. C >= F means every candidate is covered —
// the check is empty, and that verdict survives any narrowing of
// tpFrom (constants, type constraints), because a subset of a covered
// set is covered. C < F proves some candidate is missing, but only
// when tpFrom is unconstrained (no non-predicate constants, no type
// constraint) — a narrowed candidate set might dodge the gap — so the
// constrained case falls back to the probe. ok=false means probe.
func (sum *Summary) CheckNonEmpty(v sparql.Var, tpFrom, tpTo sparql.TriplePattern, typ rdf.Term) (nonEmpty, ok bool) {
	pFrom, okFrom := predOf(tpFrom)
	pTo, okTo := predOf(tpTo)
	if !okFrom || !okTo {
		return false, false
	}
	fromStats, present := sum.Predicates[pFrom]
	if !present {
		// No tpFrom triples at all: the check query has no candidate
		// rows, so it is empty — definitive even with constants.
		return false, true
	}
	rFrom, okRF := soleRole(tpFrom, v)
	rTo, okRT := soleRole(tpTo, v)
	if !okRF || !okRT {
		return false, false
	}
	var from float64
	if rFrom == roleSubj {
		from = fromStats.DistinctSubjects
	} else {
		from = fromStats.DistinctObjects
	}
	covered, known := sum.joint(pFrom, rFrom, pTo, rTo)
	if !known {
		return false, false
	}
	if covered >= from {
		return false, true
	}
	// Some candidate is missing — definitive only for the
	// unconstrained candidate set; a constant or type constraint on
	// tpFrom narrows the candidates, which might dodge the gap.
	if !tpFrom.S.IsVar() || !tpFrom.O.IsVar() || !typ.IsZero() {
		return false, false
	}
	return true, true
}

// PairCard returns the number of distinct v values joining patterns a
// and b at the endpoint, from the pair matrices. ok=false when the
// pair is not covered.
func (sum *Summary) PairCard(v sparql.Var, a, b sparql.TriplePattern) (float64, bool) {
	pa, okA := predOf(a)
	pb, okB := predOf(b)
	if !okA || !okB {
		return 0, false
	}
	ra, okRA := soleRole(a, v)
	rb, okRB := soleRole(b, v)
	if !okRA || !okRB {
		return 0, false
	}
	return sum.joint(pa, ra, pb, rb)
}

// joint returns the number of distinct values holding role ra of
// predicate pa and role rb of predicate pb, from the pair matrices.
func (sum *Summary) joint(pa string, ra role, pb string, rb role) (float64, bool) {
	switch {
	case ra == roleSubj && rb == roleSubj:
		return sum.Star(pa, pb)
	case ra == roleObj && rb == roleSubj:
		return sum.Chain(pa, pb)
	case ra == roleSubj && rb == roleObj:
		return sum.Chain(pb, pa)
	default:
		return sum.Obj(pa, pb)
	}
}

type role int

const (
	roleSubj role = iota
	roleObj
)

// soleRole reports v's single role in the pattern; ok=false when v is
// absent, appears in the predicate position, or holds both subject and
// object (a self-join shape the pair matrices do not model).
func soleRole(tp sparql.TriplePattern, v sparql.Var) (role, bool) {
	subj := tp.S.IsVar() && tp.S.Var == v
	obj := tp.O.IsVar() && tp.O.Var == v
	if tp.P.IsVar() && tp.P.Var == v {
		return 0, false
	}
	switch {
	case subj && !obj:
		return roleSubj, true
	case obj && !subj:
		return roleObj, true
	default:
		return 0, false
	}
}

// Observe feeds one estimated-vs-actual subquery cardinality into the
// calibration factors of every (endpoint, predicate) the subquery
// touched. No-op unless calibration is enabled.
func (s *Service) Observe(epNames []string, preds []string, est, actual float64) {
	if s == nil || s.cal == nil {
		return
	}
	s.cal.observe(epNames, preds, est, actual)
}

// Factor returns the learned correction factor for (endpoint,
// predicate); 1 when calibration is off or the key is unseen.
func (s *Service) Factor(epName, pred string) float64 {
	if s == nil || s.cal == nil {
		return 1
	}
	return s.cal.factor(epName, pred)
}

// Stats snapshots the harvest and calibration counters.
func (s *Service) Stats() ServiceStats {
	if s == nil {
		return ServiceStats{}
	}
	st := ServiceStats{
		Refreshes:      s.refreshes.Load(),
		RefreshErrors:  s.refreshErrs.Load(),
		Discards:       s.discards.Load(),
		HarvestQueries: s.harvestQueries.Load(),
	}
	if s.cal != nil {
		st.CalibrationKeys, st.Observations = s.cal.stats()
	}
	return st
}
