package federation

import (
	"context"
	"sort"

	"lusail/internal/endpoint"
	"lusail/internal/sparql"
	"lusail/internal/stats"
)

// AskQueryFor builds the ASK query that tests whether tp has any
// solution, with variables canonicalized (?s ?p ?o in order of first
// appearance; a repeated variable keeps one name), so that two queries
// sharing a pattern shape share the probe text — and with it the stored
// fact (FedX-style).
func AskQueryFor(tp sparql.TriplePattern) string {
	names := [3]string{"?s", "?p", "?o"}
	var seen [3]sparql.Var
	n := 0
	el := func(e sparql.Elem) string {
		if !e.IsVar() {
			return e.Term.String()
		}
		for i := 0; i < n; i++ {
			if seen[i] == e.Var {
				return names[i]
			}
		}
		seen[n] = e.Var
		n++
		return names[n-1]
	}
	return "ASK { " + el(tp.S) + " " + el(tp.P) + " " + el(tp.O) + " }"
}

// Selection maps each triple pattern (by index into the pattern list)
// to the endpoints that can answer it.
type Selection struct {
	Patterns []sparql.TriplePattern
	// Sources[i] lists indexes into Endpoints for pattern i.
	Sources   [][]int
	Endpoints []endpoint.Endpoint
	// AskRequests counts the ASK queries actually sent (cache misses).
	AskRequests int
	// SummaryAnswers counts relevance verdicts answered from offline
	// statistics summaries instead of ASK probes.
	SummaryAnswers int
}

// Selector performs ASK-based source selection over a fixed endpoint
// list: one relevance question per pattern per endpoint, answered from
// the shared plan knowledge where it can be and by an ASK probe
// otherwise.
type Selector struct {
	Endpoints []endpoint.Endpoint
	Know      *Knowledge
}

// NewSelector builds a selector. know may be nil: every question is
// then probed and nothing is retained.
func NewSelector(eps []endpoint.Endpoint, know *Knowledge) *Selector {
	return &Selector{Endpoints: eps, Know: know}
}

// Select runs source selection for every pattern of the query, failing
// on the first failed probe.
func (s *Selector) Select(ctx context.Context, q *sparql.Query) (*Selection, error) {
	return s.SelectPatterns(ctx, nil, PatternsOf(q.Where))
}

// SelectPatterns runs source selection for an explicit pattern list. A
// probe failure dg absorbs leaves the endpoint irrelevant to the
// pattern; any other fails the selection.
func (s *Selector) SelectPatterns(ctx context.Context, dg *endpoint.Degrade, patterns []sparql.TriplePattern) (*Selection, error) {
	sel := &Selection{
		Patterns:  patterns,
		Sources:   make([][]int, len(patterns)),
		Endpoints: s.Endpoints,
	}
	type target struct{ pattern, ep int }
	var pending []Question
	var targets []target
	for pi, tp := range patterns {
		q := Question{Kind: KindAsk, Text: AskQueryFor(tp),
			Summary: func(sum *stats.Summary) (float64, bool) {
				relevant, ok := sum.Relevant(tp)
				return Truth(relevant), ok
			}}
		for ei, ep := range s.Endpoints {
			q.EP = ep
			v, tier := s.Know.Lookup(&q)
			switch tier {
			case TierNone:
				pending = append(pending, q)
				targets = append(targets, target{pi, ei})
				continue
			case TierSummary:
				sel.SummaryAnswers++
			}
			if v != 0 {
				sel.Sources[pi] = append(sel.Sources[pi], ei)
			}
		}
	}
	sel.AskRequests = len(pending)
	answers, err := s.Know.Probe(ctx, dg, "source-selection", pending)
	if err != nil {
		return nil, err
	}
	for i, a := range answers {
		// A dropped probe leaves the endpoint not relevant for the
		// pattern: later phases never target it, so the result is exactly
		// the answer set derivable from the surviving endpoints.
		if a.OK && a.Value != 0 {
			sel.Sources[targets[i].pattern] = append(sel.Sources[targets[i].pattern], targets[i].ep)
		}
	}
	// Sorted source lists compare element-wise (LADE, decomposition).
	for i := range sel.Sources {
		sort.Ints(sel.Sources[i])
	}
	return sel, nil
}
