package federation

import (
	"context"
	"fmt"

	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// Naive is the paper's §II "simple alternative": evaluate every triple
// pattern independently against all relevant endpoints without any
// binding, ship everything, and join at the federator. It minimizes
// remote requests but maximizes transferred data. It doubles as the
// correctness oracle for all optimized engines, since for the
// supported fragment its answer equals evaluating the query over the
// union graph.
type Naive struct {
	selector *Selector
}

// NewNaive builds the naive federator over eps; know may be nil.
func NewNaive(eps []endpoint.Endpoint, know *Knowledge) *Naive {
	return &Naive{selector: NewSelector(eps, know)}
}

// Name implements Engine.
func (n *Naive) Name() string { return "naive" }

// Execute ships each pattern to its relevant endpoints, materializes
// the matching triples in a scratch store, and evaluates the original
// query locally over it.
func (n *Naive) Execute(ctx context.Context, query string) (*sparql.Results, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	sel, err := n.selector.Select(ctx, q)
	if err != nil {
		return nil, err
	}
	scratch := store.New()
	var tasks []Task
	var taskPattern []int
	for pi, tp := range sel.Patterns {
		fetch, ok := PatternFetchQuery(tp)
		if !ok {
			// Fully constant pattern: source selection already proved
			// existence at the relevant endpoints.
			if len(sel.Sources[pi]) > 0 {
				scratch.Add(rdf.Triple{S: tp.S.Term, P: tp.P.Term, O: tp.O.Term})
			}
			continue
		}
		for _, ei := range sel.Sources[pi] {
			tasks = append(tasks, Task{EP: sel.Endpoints[ei], Query: fetch})
			taskPattern = append(taskPattern, pi)
		}
	}
	// Replies are added in task order, so the scratch store, and with it
	// the result order, does not depend on which endpoint answered first.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	replies := make([]*sparql.Results, len(tasks))
	var firstErr error
	for r := range Run(ctx, tasks) {
		if r.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("naive fetch: %w", r.Err)
			cancel()
		}
		replies[r.Index] = r.Res
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for i, res := range replies {
		tp := sel.Patterns[taskPattern[i]]
		for _, row := range res.Rows {
			if t, ok := ReconstructTriple(tp, row); ok {
				scratch.Add(t)
			}
		}
	}
	return engine.New(scratch).Eval(q)
}

// PatternFetchQuery builds the SELECT query retrieving all matches of
// one triple pattern. ok is false when the pattern has no variables.
func PatternFetchQuery(tp sparql.TriplePattern) (string, bool) {
	if !tp.S.IsVar() && !tp.P.IsVar() && !tp.O.IsVar() {
		return "", false
	}
	return fmt.Sprintf("SELECT * WHERE { %s . }", tp.String()), true
}

// ReconstructTriple rebuilds the concrete triple a solution row
// represents for pattern tp. ok is false when a variable is unbound.
func ReconstructTriple(tp sparql.TriplePattern, row sparql.Binding) (rdf.Triple, bool) {
	get := func(e sparql.Elem) (rdf.Term, bool) {
		if !e.IsVar() {
			return e.Term, true
		}
		t, ok := row[e.Var]
		return t, ok
	}
	s, ok1 := get(tp.S)
	p, ok2 := get(tp.P)
	o, ok3 := get(tp.O)
	if !ok1 || !ok2 || !ok3 {
		return rdf.Triple{}, false
	}
	return rdf.Triple{S: s, P: p, O: o}, true
}
