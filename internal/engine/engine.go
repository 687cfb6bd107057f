// Package engine evaluates SPARQL queries (the fragment in
// internal/sparql) over a local triple store. One engine instance runs
// inside every endpoint of the federation, playing the role the paper
// assigns to Jena Fuseki / Virtuoso.
package engine

import (
	"fmt"
	"sort"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// Engine evaluates queries over one store.
type Engine struct {
	st *store.Store
}

// New returns an engine over st.
func New(st *store.Store) *Engine { return &Engine{st: st} }

// Store returns the underlying store.
func (e *Engine) Store() *store.Store { return e.st }

// Eval evaluates q over one consistent state of the store: the read
// lock is taken once, here, and held for the whole evaluation. The
// nested-loop BGP join issues matches from inside match callbacks; if
// each took the lock itself, a writer arriving in between would block
// the inner one forever, and a query could see half a churn batch
// between two patterns.
func (e *Engine) Eval(q *sparql.Query) (res *sparql.Results, err error) {
	e.st.Read(func(v store.View) { res, err = evaluation{v}.eval(q) })
	return res, err
}

// evaluation is one query's evaluation over the view it holds.
type evaluation struct{ st store.View }

func (e evaluation) eval(q *sparql.Query) (*sparql.Results, error) {
	switch q.Form {
	case sparql.AskForm:
		rows, err := e.evalGroupLimited(q.Where, 1)
		if err != nil {
			return nil, err
		}
		return sparql.NewAskResult(len(rows) > 0), nil
	case sparql.SelectForm:
		return e.evalSelect(q)
	default:
		return nil, fmt.Errorf("engine: unsupported query form %v", q.Form)
	}
}

func (e evaluation) evalSelect(q *sparql.Query) (*sparql.Results, error) {
	// Fast path for the statistics queries federated engines send
	// constantly: COUNT(*) over one triple pattern with no other
	// operators maps straight onto the store's index sizes.
	if q.Count && q.CountArg == "" && q.Offset == 0 &&
		len(q.Where.Patterns) == 1 && len(q.Where.Filters) == 0 &&
		len(q.Where.Optionals) == 0 && len(q.Where.Unions) == 0 &&
		len(q.Where.Values) == 0 {
		tp := q.Where.Patterns[0]
		if !hasRepeatedVar(tp) {
			term := func(el sparql.Elem) rdf.Term {
				if el.IsVar() {
					return rdf.Term{}
				}
				return el.Term
			}
			n := e.st.CountMatch(term(tp.S), term(tp.P), term(tp.O))
			return &sparql.Results{
				Vars: []sparql.Var{q.CountVar},
				Rows: []sparql.Binding{{q.CountVar: rdf.Integer(int64(n))}},
			}, nil
		}
	}
	// A row limit can be pushed into group evaluation only when no
	// operation downstream of the group can drop or reorder rows.
	limit := 0
	if q.Limit >= 0 && !q.Distinct && !q.Count && q.Offset == 0 && len(q.OrderBy) == 0 {
		limit = q.Limit
	}
	rows, err := e.evalGroupLimited(q.Where, limit)
	if err != nil {
		return nil, err
	}
	return Finalize(q, rows), nil
}

// Finalize applies a query's solution modifiers — COUNT, ORDER BY,
// projection, DISTINCT, OFFSET, LIMIT — to a set of solution rows.
// Federated engines share it to post-process globally joined rows.
func Finalize(q *sparql.Query, rows []sparql.Binding) *sparql.Results {
	if q.Count {
		return countResult(q, rows)
	}
	// ORDER BY applies before projection: its keys may reference
	// variables that are not projected.
	if len(q.OrderBy) > 0 {
		orderRows(rows, q.OrderBy)
	}
	vars := q.ProjectedVars()
	res := &sparql.Results{Vars: vars}
	res.Rows = make([]sparql.Binding, 0, len(rows))
	for _, row := range rows {
		nb := make(sparql.Binding, len(vars))
		for _, v := range vars {
			if t, ok := row[v]; ok {
				nb[v] = t
			}
		}
		res.Rows = append(res.Rows, nb)
	}
	if q.Distinct {
		res.Rows = sparql.Dedup(nil, res.Rows, vars)
	}
	if q.Offset > 0 {
		if q.Offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(res.Rows) {
		res.Rows = res.Rows[:q.Limit]
	}
	return res
}

func hasRepeatedVar(tp sparql.TriplePattern) bool {
	vars := map[sparql.Var]int{}
	for _, el := range []sparql.Elem{tp.S, tp.P, tp.O} {
		if el.IsVar() {
			vars[el.Var]++
		}
	}
	for _, n := range vars {
		if n > 1 {
			return true
		}
	}
	return false
}

func countResult(q *sparql.Query, rows []sparql.Binding) *sparql.Results {
	n := 0
	if q.CountArg != "" {
		if q.CountDistinct {
			seen := map[rdf.Term]struct{}{}
			for _, row := range rows {
				if t, ok := row[q.CountArg]; ok {
					seen[t] = struct{}{}
				}
			}
			n = len(seen)
		} else {
			for _, row := range rows {
				if _, ok := row[q.CountArg]; ok {
					n++
				}
			}
		}
	} else {
		n = len(rows)
	}
	return &sparql.Results{
		Vars: []sparql.Var{q.CountVar},
		Rows: []sparql.Binding{{q.CountVar: rdf.Integer(int64(n))}},
	}
}

func orderRows(rows []sparql.Binding, keys []sparql.OrderKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			a, aok := rows[i][k.Var]
			b, bok := rows[j][k.Var]
			var c int
			switch {
			case !aok && !bok:
				c = 0
			case !aok:
				c = -1 // unbound sorts first
			case !bok:
				c = 1
			default:
				c = a.Compare(b)
			}
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// existsEvaluator returns the callback used for FILTER EXISTS
// evaluation: the group is evaluated with the outer binding as seed.
func (e evaluation) existsEvaluator() sparql.ExistsEvaluator {
	return func(g *sparql.GroupGraphPattern, b sparql.Binding) (bool, error) {
		rows, err := e.evalGroupSeeded(g, []sparql.Binding{b}, 1)
		if err != nil {
			return false, err
		}
		return len(rows) > 0, nil
	}
}

// evalGroupLimited evaluates a group from an empty seed.
func (e evaluation) evalGroupLimited(g *sparql.GroupGraphPattern, limit int) ([]sparql.Binding, error) {
	return e.evalGroupSeeded(g, []sparql.Binding{{}}, limit)
}

// evalGroupSeeded evaluates a group joined against the seed bindings.
// limit > 0 caps the number of produced rows (safe because the cap is
// applied after filters).
func (e evaluation) evalGroupSeeded(g *sparql.GroupGraphPattern, seed []sparql.Binding, limit int) ([]sparql.Binding, error) {
	if g == nil {
		return seed, nil
	}
	// Simple streaming case: only triple patterns (+ filters). The BGP
	// join applies filters per completed row and honors the limit.
	if len(g.Unions) == 0 && len(g.Values) == 0 && len(g.Optionals) == 0 {
		return e.joinBGP(seed, g.Patterns, g.Filters, limit)
	}
	// General case: materialize the BGP, then the rest of the group.
	rows, err := e.joinBGP(seed, g.Patterns, nil, 0)
	if err != nil {
		return nil, err
	}
	rows, err = sparql.EvalGroupOps(rows, g, g.Filters, func(a *sparql.GroupGraphPattern) ([]sparql.Binding, error) {
		return e.evalGroupSeeded(a, []sparql.Binding{{}}, 0)
	}, e.existsEvaluator())
	if err != nil {
		return nil, err
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows, nil
}
