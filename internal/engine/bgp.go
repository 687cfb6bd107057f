package engine

import (
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// joinBGP joins the seed bindings with all triple patterns using an
// index nested-loop join, applying filters to each completed row.
// limit > 0 stops evaluation after producing that many rows.
func (e evaluation) joinBGP(seed []sparql.Binding, patterns []sparql.TriplePattern, filters []sparql.Expr, limit int) ([]sparql.Binding, error) {
	keep := sparql.Predicate(filters, e.existsEvaluator())
	if len(patterns) == 0 {
		rows := sparql.Filter(seed, keep)
		if limit > 0 && len(rows) > limit {
			rows = rows[:limit]
		}
		return rows, nil
	}

	// The join key of the seed with itself: what every seed row binds.
	order := e.orderPatterns(patterns, sparql.JoinKey(seed, seed))

	var out []sparql.Binding
	var rec func(row sparql.Binding, depth int) bool // returns true to stop
	rec = func(row sparql.Binding, depth int) bool {
		if depth == len(order) {
			if keep != nil && !keep(row) {
				return false
			}
			out = append(out, row)
			return limit > 0 && len(out) >= limit
		}
		tp := order[depth]
		s, sv := resolve(tp.S, row)
		p, pv := resolve(tp.P, row)
		o, ov := resolve(tp.O, row)
		stopped := false
		e.st.ForEachMatch(s, p, o, func(tr rdf.Triple) bool {
			nb := extend(row, tr, tp, sv, pv, ov)
			if nb == nil {
				return true
			}
			if rec(nb, depth+1) {
				stopped = true
				return false
			}
			return true
		})
		return stopped
	}
	for _, row := range seed {
		if rec(row, 0) {
			break
		}
	}
	return out, nil
}

// resolve maps a pattern element to a concrete term (zero = wildcard)
// plus the variable to bind when it is an unbound variable.
func resolve(el sparql.Elem, row sparql.Binding) (rdf.Term, sparql.Var) {
	if !el.IsVar() {
		return el.Term, ""
	}
	if t, ok := row[el.Var]; ok {
		return t, ""
	}
	return rdf.Term{}, el.Var
}

// extend binds the pattern's unbound variables to the matched triple,
// returning nil on a repeated-variable conflict (e.g. ?x p ?x).
func extend(row sparql.Binding, tr rdf.Triple, tp sparql.TriplePattern, sv, pv, ov sparql.Var) sparql.Binding {
	nb := row.Clone()
	bind := func(v sparql.Var, t rdf.Term) bool {
		if v == "" {
			return true
		}
		if prev, ok := nb[v]; ok {
			return prev == t
		}
		nb[v] = t
		return true
	}
	if !bind(sv, tr.S) || !bind(pv, tr.P) || !bind(ov, tr.O) {
		return nil
	}
	return nb
}

// orderPatterns produces a greedy join order: repeatedly pick the
// pattern with the lowest estimated cardinality given the variables
// bound so far, preferring patterns connected to already-bound
// variables to avoid cartesian products.
func (e evaluation) orderPatterns(patterns []sparql.TriplePattern, bound []sparql.Var) []sparql.TriplePattern {
	remaining := append([]sparql.TriplePattern(nil), patterns...)
	b := make(map[sparql.Var]bool, len(bound))
	for _, v := range bound {
		b[v] = true
	}
	out := make([]sparql.TriplePattern, 0, len(patterns))
	for len(remaining) > 0 {
		bestIdx, bestScore := -1, 0
		for i, tp := range remaining {
			score := e.patternScore(tp, b)
			if bestIdx < 0 || score < bestScore {
				bestIdx, bestScore = i, score
			}
		}
		tp := remaining[bestIdx]
		out = append(out, tp)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		for _, v := range tp.Vars() {
			b[v] = true
		}
	}
	return out
}

// patternScore estimates the cost of evaluating tp given bound vars.
// Lower is better. Bound variables act like constants for index
// selection purposes; disconnected patterns are penalized heavily.
func (e evaluation) patternScore(tp sparql.TriplePattern, bound map[sparql.Var]bool) int {
	term := func(el sparql.Elem) (rdf.Term, bool) {
		if !el.IsVar() {
			return el.Term, true
		}
		if bound[el.Var] {
			return rdf.Term{}, true // bound but value unknown at plan time
		}
		return rdf.Term{}, false
	}
	s, sb := term(tp.S)
	p, pb := term(tp.P)
	o, ob := term(tp.O)
	// Base estimate from constants only.
	est := e.st.EstimateMatch(s, p, o)
	// Each bound-variable position cuts the expected fan-out; model it
	// as a large constant reduction since actual values are unknown.
	boundVars := 0
	for _, x := range []bool{sb && tp.S.IsVar(), pb && tp.P.IsVar(), ob && tp.O.IsVar()} {
		if x {
			boundVars++
		}
	}
	score := est >> (4 * boundVars)
	connected := boundVars > 0 || !tp.S.IsVar() || !tp.O.IsVar() || len(bound) == 0
	if !connected {
		score += 1 << 28 // avoid cartesian products
	}
	return score
}
