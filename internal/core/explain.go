package core

import (
	"context"
	"fmt"
	"strings"

	"lusail/internal/sparql"
)

// String renders the plan for humans.
func (p *Plan) String() string {
	var b strings.Builder
	p.write(&b, "", func(sq *Subquery) string { return planned(sq, delayMode(sq)) })
	return b.String()
}

// delayMode names the evaluation mode planning chose for sq.
func delayMode(sq *Subquery) string {
	if sq.Delayed {
		return "delayed"
	}
	return "concurrent"
}

// planned renders what planning decided for sq — how it is evaluated
// (mode), the OPTIONAL group it belongs to, its estimate.
func planned(sq *Subquery, mode string) string {
	kind := ""
	if sq.Optional {
		kind = fmt.Sprintf(" optional(group %d)", sq.OptionalGroup)
	}
	return fmt.Sprintf("%s%s, est. card %.0f", mode, kind, sq.EstCard)
}

// write renders the plan tree, nested groups indented under their name;
// head renders a subquery's bracketed summary (the estimate for Explain,
// estimate against actuals for ExplainAnalyze).
func (p *Plan) write(b *strings.Builder, indent string, head func(*Subquery) string) {
	if p.name != "" {
		fmt.Fprintf(b, "%s%s:\n", indent, p.name)
		indent += "    "
	}
	if p.empty {
		fmt.Fprintf(b, "%sempty: a required pattern has no relevant source\n", indent)
		return
	}
	gjvs := "none (disjoint query)"
	if len(p.GJVs) > 0 {
		gjvs = "?" + joinVars(p.GJVs, ", ?")
	}
	fmt.Fprintf(b, "%sglobal join variables: %s\n%scheck queries sent: %d\n", indent, gjvs, indent, p.CheckQueries)
	for _, sq := range p.Subqueries {
		var srcs []string
		for _, ei := range sq.Sources {
			if ei < len(p.endpoints) {
				srcs = append(srcs, p.endpoints[ei].Name())
			} else {
				srcs = append(srcs, fmt.Sprint(ei))
			}
		}
		fmt.Fprintf(b, "%ssubquery %d [%s] @ {%s}\n", indent, sq.ID, head(sq), strings.Join(srcs, ", "))
		for _, tp := range sq.Patterns {
			fmt.Fprintf(b, "%s    %s .\n", indent, tp.String())
		}
		for _, f := range sq.Filters {
			fmt.Fprintf(b, "%s    FILTER (%s)\n", indent, f.String())
		}
		fmt.Fprintf(b, "%s    %s\n", indent, renderProjection(sq.ProjVars))
	}
	for _, g := range p.Groups {
		g.write(b, indent, head)
	}
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

// Explain returns the plan a query would execute, without executing it:
// it parses, runs the one planning pass every execution runs — same
// projections, same decomposer, nested UNION and OPTIONAL groups
// included — and returns the tree. Only the analysis probes (ASK, check,
// COUNT) are sent, for the nested groups as well as the top one; no
// subquery is evaluated.
//
// Planning runs under the engine's degradation policy: with SkipEndpoint
// or BestEffort configured, a dead endpoint must not fail planning any
// more than it fails execution. The planning-local drops are not
// surfaced (the plan is advisory); ExplainAnalyze reports the
// execution's own completeness.
func (l *Lusail) Explain(ctx context.Context, query string) (*Plan, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	r := &run{l: l, q: q}
	ctx, cancel := r.withDegrade(ctx, 0)
	defer cancel()
	if err := r.plan(ctx); err != nil {
		return nil, err
	}
	return r.root, nil
}
