// Package core implements Lusail's two contributions: LADE, the
// locality-aware decomposition of a federated SPARQL query into
// endpoint-local subqueries (paper §IV), and SAPE, the
// selectivity-aware parallel executor that delays low-selectivity
// subqueries and joins subquery results with a cost-based parallel
// hash join (paper §V).
package core

import (
	"fmt"
	"sort"
	"strings"

	"lusail/internal/sparql"
	"lusail/internal/trace"
)

// Subquery is one unit of endpoint-local work produced by LADE: a
// connected set of triple patterns with identical relevant sources and
// no pattern pair straddling a global join variable.
type Subquery struct {
	// ID is the position in the decomposition, used in reports.
	ID int
	// Patterns is the subquery's basic graph pattern.
	Patterns []sparql.TriplePattern
	// Filters are the filter expressions pushed into this subquery.
	Filters []sparql.Expr
	// Sources are indexes into the federation's endpoint list.
	Sources []int
	// Optional marks subqueries originating from an OPTIONAL group;
	// their results are left-joined, and they are natural delay
	// candidates (paper §V-A).
	Optional bool
	// OptionalGroup identifies which OPTIONAL group the subquery came
	// from (-1 for required subqueries); subqueries of one group are
	// joined together before the left join.
	OptionalGroup int

	// ProjVars is the projection shipped to endpoints: variables
	// needed by the global join, unpushed filters, or the final
	// projection.
	ProjVars []sparql.Var

	// Delayed is SAPE's decision to evaluate this subquery bound to
	// previously found bindings.
	Delayed bool
	// EstCard is the estimated cardinality from the cost model.
	EstCard float64

	// record is the subquery's execution record in a traced run (see
	// recordSubquerySpan): what ExplainAnalyze annotates the plan with.
	record *trace.Span
}

// Vars returns all variables of the subquery's patterns.
func (sq *Subquery) Vars() []sparql.Var {
	var out []sparql.Var
	seen := map[sparql.Var]bool{}
	for _, tp := range sq.Patterns {
		for _, v := range tp.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// HasVar reports whether v occurs in any pattern.
func (sq *Subquery) HasVar(v sparql.Var) bool {
	for _, tp := range sq.Patterns {
		if tp.HasVar(v) {
			return true
		}
	}
	return false
}

// SharedVars returns the variables sq shares with other.
func (sq *Subquery) SharedVars(other *Subquery) []sparql.Var {
	var out []sparql.Var
	for _, v := range sq.Vars() {
		if other.HasVar(v) {
			out = append(out, v)
		}
	}
	return out
}

// Query renders the subquery as an executable SPARQL SELECT.
func (sq *Subquery) Query() *sparql.Query {
	q := sparql.NewSelect()
	q.Vars = append([]sparql.Var(nil), sq.ProjVars...)
	q.Where = &sparql.GroupGraphPattern{
		Patterns: append([]sparql.TriplePattern(nil), sq.Patterns...),
		Filters:  append([]sparql.Expr(nil), sq.Filters...),
	}
	return q
}

// String summarizes the subquery for logs and tests.
func (sq *Subquery) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SQ%d", sq.ID)
	if sq.Optional {
		fmt.Fprintf(&b, "(opt:%d)", sq.OptionalGroup)
	}
	if sq.Delayed {
		b.WriteString("(delayed)")
	}
	b.WriteString("{")
	for i, tp := range sq.Patterns {
		if i > 0 {
			b.WriteString(" . ")
		}
		b.WriteString(tp.String())
	}
	fmt.Fprintf(&b, "}@%v", sq.Sources)
	return b.String()
}

// sortVars orders variables deterministically.
func sortVars(vs []sparql.Var) []sparql.Var {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// sameIntSlice reports element-wise equality of sorted int slices.
func sameIntSlice(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
