package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"lusail/internal/endpoint"
	"lusail/internal/sparql"
)

// Plan describes how Lusail would execute a query: the detected global
// join variables and the decomposed, cost-annotated subqueries. It is
// produced by Explain without executing the query (only the analysis
// probes — ASK, check, COUNT — are sent).
type Plan struct {
	// GJVs are the global join variables, sorted.
	GJVs []sparql.Var
	// CheckQueries counts the locality probes the analysis sent.
	CheckQueries int
	// Subqueries are the planned units with sources, projections,
	// estimated cardinalities, and delay decisions.
	Subqueries []*Subquery
	// EndpointNames resolves source indexes for display.
	EndpointNames []string
}

// String renders the plan for humans.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "global join variables: ")
	if len(p.GJVs) == 0 {
		b.WriteString("none (disjoint query)")
	}
	for i, v := range p.GJVs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("?" + string(v))
	}
	fmt.Fprintf(&b, "\ncheck queries sent: %d\n", p.CheckQueries)
	for _, sq := range p.Subqueries {
		mode := "concurrent"
		if sq.Delayed {
			mode = "delayed"
		}
		kind := ""
		if sq.Optional {
			kind = fmt.Sprintf(" optional(group %d)", sq.OptionalGroup)
		}
		var srcs []string
		for _, ei := range sq.Sources {
			if ei < len(p.EndpointNames) {
				srcs = append(srcs, p.EndpointNames[ei])
			} else {
				srcs = append(srcs, fmt.Sprint(ei))
			}
		}
		fmt.Fprintf(&b, "subquery %d [%s%s, est. card %.0f] @ {%s}\n",
			sq.ID, mode, kind, sq.EstCard, strings.Join(srcs, ", "))
		for _, tp := range sq.Patterns {
			fmt.Fprintf(&b, "    %s .\n", tp.String())
		}
		for _, f := range sq.Filters {
			fmt.Fprintf(&b, "    FILTER (%s)\n", f.String())
		}
		fmt.Fprintf(&b, "    %s\n", renderProjection(sq.ProjVars))
	}
	return b.String()
}

func joinVars(vs []sparql.Var, sep string) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = string(v)
	}
	return strings.Join(parts, sep)
}

// renderProjection renders a subquery projection, handling the empty
// case (a subquery whose bindings nobody downstream needs) instead of
// producing a dangling "SELECT ?".
func renderProjection(vs []sparql.Var) string {
	if len(vs) == 0 {
		return "SELECT (no projection)"
	}
	return "SELECT ?" + joinVars(vs, " ?")
}

// Explain analyzes a query — source selection, GJV detection,
// decomposition, filter pushing, cost estimation, delay marking — and
// returns the plan without executing it. OPTIONAL groups are analyzed
// like Execute does; UNION alternatives are summarized as the plans of
// their own groups would be and are not expanded here.
func (l *Lusail) Explain(ctx context.Context, query string) (*Plan, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	// Plan under the engine's degradation policy: with SkipEndpoint or
	// BestEffort configured, a dead endpoint must not fail planning any
	// more than it fails execution. The planning-local drops are not
	// surfaced (the plan is advisory); ExplainAnalyze reports the
	// execution's own completeness.
	if endpoint.DegradeFrom(ctx) == nil {
		var cancel context.CancelFunc
		ctx, _, cancel = l.withDegrade(ctx, 0)
		defer cancel()
	}
	g := q.Where
	sel, err := l.selector.SelectPatterns(ctx, g.Patterns)
	if err != nil {
		return nil, err
	}
	rep, err := l.decomposer.DetectGJVs(ctx, g.Patterns, sel.Sources, TypeConstraints(g.Patterns))
	if err != nil {
		return nil, err
	}
	required := Decompose(g.Patterns, sel.Sources, rep)
	PushFilters(required, g.Filters)

	all := append([]*Subquery(nil), required...)
	for ogID, og := range g.Optionals {
		if len(og.Optionals) > 0 || len(og.Unions) > 0 || len(og.Values) > 0 {
			continue // nested structure is planned recursively at run time
		}
		oSel, err := l.selector.SelectPatterns(ctx, og.Patterns)
		if err != nil {
			return nil, err
		}
		oRep, err := l.decomposer.DetectGJVs(ctx, og.Patterns, oSel.Sources, TypeConstraints(og.Patterns))
		if err != nil {
			return nil, err
		}
		for v := range oRep.GJVs {
			rep.GJVs[v] = true
		}
		rep.CheckQueries += oRep.CheckQueries
		oSqs := Decompose(og.Patterns, oSel.Sources, oRep)
		PushFilters(oSqs, og.Filters)
		for _, sq := range oSqs {
			sq.Optional = true
			sq.OptionalGroup = ogID
			all = append(all, sq)
		}
	}
	for i, sq := range all {
		sq.ID = i
	}
	ComputeProjections(all, q.ProjectedVars())
	if _, err := l.cost.EstimateCards(ctx, all); err != nil {
		return nil, err
	}
	MarkDelayed(all, l.cfg.DelayPolicy)

	plan := &Plan{CheckQueries: rep.CheckQueries, Subqueries: all}
	for v := range rep.GJVs {
		plan.GJVs = append(plan.GJVs, v)
	}
	sort.Slice(plan.GJVs, func(i, j int) bool { return plan.GJVs[i] < plan.GJVs[j] })
	for _, ep := range l.eps {
		plan.EndpointNames = append(plan.EndpointNames, ep.Name())
	}
	return plan, nil
}
