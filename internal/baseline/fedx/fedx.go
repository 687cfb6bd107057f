// Package fedx reimplements the FedX federated SPARQL engine
// (Schwarte et al., ISWC 2011), the paper's primary index-free
// competitor: ASK-based source selection with caching, exclusive
// groups, variable-counting join ordering, and block nested-loop
// bound joins. Its request count scales with intermediate-result
// size, which is exactly the behavior Figures 3, 11, 12 and 13 of the
// Lusail paper measure.
package fedx

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/federation"
	"lusail/internal/sparql"
)

// Config tunes FedX.
type Config struct {
	// BoundBlockSize is the bind-join block size (FedX default: 15).
	BoundBlockSize int
}

// FedX is the engine.
type FedX struct {
	eps         []endpoint.Endpoint
	cfg         Config
	selector    *federation.Selector
	altSelector SourceSelector
}

// New builds a FedX engine over the endpoints with a shared ASK cache.
func New(eps []endpoint.Endpoint, cfg Config) *FedX {
	if cfg.BoundBlockSize == 0 {
		cfg.BoundBlockSize = 15
	}
	return &FedX{
		eps:      eps,
		cfg:      cfg,
		selector: federation.NewSelector(eps, federation.NewKnowledge(eps)),
	}
}

// Name implements federation.Engine.
func (f *FedX) Name() string { return "fedx" }

// SetSelector overrides source selection; the HiBISCuS add-on uses it
// to layer summary-based pruning on the FedX executor.
func (f *FedX) SetSelector(sel SourceSelector) { f.altSelector = sel }

// SourceSelector abstracts source selection so HiBISCuS can replace
// it.
type SourceSelector interface {
	SelectPatterns(ctx context.Context, patterns []sparql.TriplePattern) (*federation.Selection, error)
}

// Execute runs the query.
func (f *FedX) Execute(ctx context.Context, query string) (*sparql.Results, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	rows, err := f.evalGroup(ctx, q.Where)
	if err != nil {
		return nil, err
	}
	if q.Form == sparql.AskForm {
		return sparql.NewAskResult(len(rows) > 0), nil
	}
	return engine.Finalize(q, rows), nil
}

func (f *FedX) selectPatterns(ctx context.Context, patterns []sparql.TriplePattern) (*federation.Selection, error) {
	if f.altSelector != nil {
		return f.altSelector.SelectPatterns(ctx, patterns)
	}
	return f.selector.SelectPatterns(ctx, nil, patterns)
}

// unit is one execution step: an exclusive group (several patterns at
// a single source) or an individual pattern (multiple sources).
type unit struct {
	patterns []sparql.TriplePattern
	sources  []int
	filters  []sparql.Expr
}

func (u *unit) vars() []sparql.Var {
	var out []sparql.Var
	seen := map[sparql.Var]bool{}
	for _, tp := range u.patterns {
		for _, v := range tp.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// freeVarCount is FedX's variable-counting heuristic score given the
// variables bound so far.
func (u *unit) freeVarCount(bound map[sparql.Var]bool) int {
	n := 0
	for _, v := range u.vars() {
		if !bound[v] {
			n++
		}
	}
	return n
}

func (f *FedX) evalGroup(ctx context.Context, g *sparql.GroupGraphPattern) ([]sparql.Binding, error) {
	sel, err := f.selectPatterns(ctx, g.Patterns)
	if err != nil {
		return nil, err
	}
	for i := range g.Patterns {
		if len(sel.Sources[i]) == 0 {
			return nil, nil
		}
	}

	units := exclusiveGroups(g.Patterns, sel)
	pushFilters(units, g.Filters)
	residual := residualFilters(units, g.Filters)
	for _, fl := range residual {
		if _, ok := fl.(*sparql.ExistsExpr); ok {
			return nil, fmt.Errorf("fedx: FILTER EXISTS spanning groups is not supported")
		}
	}

	rows, err := f.runUnits(ctx, units)
	if err != nil {
		return nil, err
	}

	// VALUES, UNION and OPTIONAL join at the mediator, then the
	// residual filters apply.
	return sparql.EvalGroupOps(rows, g, residual, func(a *sparql.GroupGraphPattern) ([]sparql.Binding, error) {
		return f.evalGroup(ctx, a)
	}, nil)
}

// exclusiveGroups builds FedX's execution units: patterns whose single
// relevant source coincides are grouped; all other patterns stay
// individual.
func exclusiveGroups(patterns []sparql.TriplePattern, sel *federation.Selection) []*unit {
	perSource := map[int][]sparql.TriplePattern{}
	var units []*unit
	for i, tp := range patterns {
		srcs := sel.Sources[i]
		if len(srcs) == 1 {
			perSource[srcs[0]] = append(perSource[srcs[0]], tp)
			continue
		}
		units = append(units, &unit{patterns: []sparql.TriplePattern{tp}, sources: srcs})
	}
	var keys []int
	for k := range perSource {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		units = append(units, &unit{patterns: perSource[k], sources: []int{k}})
	}
	return units
}

// pushFilters pushes a filter into every unit binding all its
// variables.
func pushFilters(units []*unit, filters []sparql.Expr) {
	for _, fl := range filters {
		if _, ok := fl.(*sparql.ExistsExpr); ok {
			continue
		}
		vars := fl.Vars()
		for _, u := range units {
			uv := map[sparql.Var]bool{}
			for _, v := range u.vars() {
				uv[v] = true
			}
			all := len(vars) > 0
			for _, v := range vars {
				if !uv[v] {
					all = false
					break
				}
			}
			if all {
				u.filters = append(u.filters, fl)
			}
		}
	}
}

func residualFilters(units []*unit, filters []sparql.Expr) []sparql.Expr {
	var out []sparql.Expr
	for _, fl := range filters {
		pushed := false
		for _, u := range units {
			for _, uf := range u.filters {
				if uf == fl {
					pushed = true
				}
			}
		}
		if !pushed {
			out = append(out, fl)
		}
	}
	return out
}

// runUnits executes units in variable-counting order: the first unit
// is evaluated unbound; each following unit is evaluated as a block
// nested-loop bound join against the intermediate rows.
func (f *FedX) runUnits(ctx context.Context, units []*unit) ([]sparql.Binding, error) {
	if len(units) == 0 {
		return []sparql.Binding{{}}, nil
	}
	remaining := append([]*unit(nil), units...)
	bound := map[sparql.Var]bool{}
	var rows []sparql.Binding
	first := true
	for len(remaining) > 0 {
		// Pick the next unit: fewest free variables; exclusive groups
		// (single source) win ties.
		best := 0
		for i := 1; i < len(remaining); i++ {
			a, b := remaining[i], remaining[best]
			fa, fb := a.freeVarCount(bound), b.freeVarCount(bound)
			if fa < fb || (fa == fb && len(a.sources) < len(b.sources)) {
				best = i
			}
		}
		u := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)

		var err error
		if first {
			rows, err = f.evalUnitUnbound(ctx, u)
			first = false
		} else {
			rows, err = f.boundJoin(ctx, rows, u)
		}
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return nil, nil
		}
		for _, v := range u.vars() {
			bound[v] = true
		}
	}
	return rows, nil
}

func (u *unit) query(extraValues *sparql.ValuesBlock) string {
	q := sparql.NewSelect()
	q.Where = &sparql.GroupGraphPattern{
		Patterns: append([]sparql.TriplePattern(nil), u.patterns...),
		Filters:  append([]sparql.Expr(nil), u.filters...),
	}
	if extraValues != nil {
		q.Where.Values = []*sparql.ValuesBlock{extraValues}
	}
	return q.String()
}

func (f *FedX) evalUnitUnbound(ctx context.Context, u *unit) ([]sparql.Binding, error) {
	rows, err := f.fetch(ctx, u, u.query(nil))
	if err != nil {
		return nil, fmt.Errorf("fedx: %w", err)
	}
	// Units project all their variables, so deduplication across
	// endpoints gives exact RDF-merge semantics for triples replicated
	// at several sources.
	return sparql.Dedup(nil, rows, u.vars()), nil
}

// boundJoin is FedX's block nested-loop join: the intermediate rows
// are split into blocks; each block's shared-variable tuples are
// attached to the unit's query as a VALUES clause and shipped to every
// relevant source.
func (f *FedX) boundJoin(ctx context.Context, rows []sparql.Binding, u *unit) ([]sparql.Binding, error) {
	shared := sharedVars(rows, u)
	if len(shared) == 0 {
		// Cartesian: evaluate unbound and join.
		right, err := f.evalUnitUnbound(ctx, u)
		if err != nil {
			return nil, err
		}
		return sparql.Join(rows, right), nil
	}
	block := f.cfg.BoundBlockSize
	var out []sparql.Binding
	for lo := 0; lo < len(rows); lo += block {
		hi := lo + block
		if hi > len(rows) {
			hi = len(rows)
		}
		blockRows := rows[lo:hi]
		text := u.query(sparql.ValuesOf(blockRows, shared))
		fetched, err := f.fetch(ctx, u, text)
		if err != nil {
			return nil, fmt.Errorf("fedx bound join: %w", err)
		}
		fetched = sparql.Dedup(nil, fetched, u.vars())
		out = append(out, sparql.Join(blockRows, fetched)...)
	}
	return out, nil
}

func sharedVars(rows []sparql.Binding, u *unit) []sparql.Var {
	vars := u.vars()
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	return sparql.CertainVars(rows, vars)
}

// fetch sends text to every source of u and returns their rows in
// source order. The first failure cancels the requests still pending.
func (f *FedX) fetch(ctx context.Context, u *unit, text string) ([]sparql.Binding, error) {
	tasks := make([]federation.Task, len(u.sources))
	for i, ei := range u.sources {
		tasks[i] = federation.Task{EP: f.eps[ei], Query: text}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	parts := make([][]sparql.Binding, len(tasks))
	var firstErr error
	for r := range federation.Run(ctx, tasks) {
		switch {
		case r.Err == nil:
			parts[r.Index] = r.Res.Rows
		case firstErr == nil:
			firstErr = r.Err
			cancel()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return slices.Concat(parts...), nil
}
