// Package federation provides the shared substrate for all federated
// SPARQL engines in this repository: the engine interface, ASK-based
// source selection with caching, the elastic request handler (Run), and a
// naive reference federator used as a correctness oracle.
package federation

import (
	"context"

	"lusail/internal/sparql"
)

// Engine is a federated SPARQL query engine: Lusail, FedX, SPLENDID,
// HiBISCuS, and the naive reference all implement it.
type Engine interface {
	// Name identifies the engine in experiment reports.
	Name() string
	// Execute runs the query against the federation.
	Execute(ctx context.Context, query string) (*sparql.Results, error)
}

// PatternsOf collects every triple pattern of a query, including those
// inside OPTIONAL, UNION, and EXISTS groups; source selection issues
// one ASK per pattern per endpoint.
func PatternsOf(g *sparql.GroupGraphPattern) []sparql.TriplePattern {
	var out []sparql.TriplePattern
	var walk func(g *sparql.GroupGraphPattern)
	walk = func(g *sparql.GroupGraphPattern) {
		if g == nil {
			return
		}
		out = append(out, g.Patterns...)
		for _, u := range g.Unions {
			for _, alt := range u.Alternatives {
				walk(alt)
			}
		}
		for _, o := range g.Optionals {
			walk(o)
		}
		for _, f := range g.Filters {
			if ex, ok := f.(*sparql.ExistsExpr); ok {
				walk(ex.Group)
			}
		}
	}
	walk(g)
	return out
}
