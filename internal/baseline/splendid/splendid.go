// Package splendid reimplements the SPLENDID federated SPARQL engine
// (Görlitz & Staab, COLD 2011): an index-based system that
// pre-collects VoID-style statistics from every endpoint, selects
// sources from the index, orders joins with those statistics, and
// chooses per step between shipping a whole pattern (hash join) and a
// bound join. Its defining cost in the Lusail paper is the
// preprocessing phase, which grows with dataset size (§VI-A).
package splendid

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/federation"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// PredicateInfo is one VoID entry: per-endpoint statistics for one
// predicate.
type PredicateInfo struct {
	Triples          int
	DistinctSubjects int
	DistinctObjects  int
}

// Index is the precomputed VoID catalog: endpoint -> predicate IRI ->
// statistics.
type Index struct {
	ByEndpoint []map[string]PredicateInfo
	BuildTime  time.Duration
	// TriplesScanned totals the data volume the preprocessing phase
	// had to touch, the driver of its cost.
	TriplesScanned int
}

// BuildIndex harvests VoID statistics from every endpoint. For local
// endpoints it scans the store the way a VoID extractor would; the
// time is dominated by dataset size, reproducing the paper's
// preprocessing-cost observation.
func BuildIndex(eps []endpoint.Endpoint) (*Index, error) {
	start := time.Now()
	idx := &Index{ByEndpoint: make([]map[string]PredicateInfo, len(eps))}
	for i, ep := range eps {
		m := map[string]PredicateInfo{}
		local, ok := ep.(interface{ Store() *store.Store })
		if !ok {
			return nil, fmt.Errorf("splendid: endpoint %s does not expose statistics", ep.Name())
		}
		st := local.Store()
		for _, ps := range st.AllPredicateStats() {
			m[ps.Predicate.Value] = PredicateInfo{
				Triples:          ps.Triples,
				DistinctSubjects: ps.DistinctSubjects,
				DistinctObjects:  ps.DistinctObjects,
			}
			idx.TriplesScanned += ps.Triples
		}
		idx.ByEndpoint[i] = m
	}
	idx.BuildTime = time.Since(start)
	return idx, nil
}

// Config tunes SPLENDID.
type Config struct {
	// BindBlockSize is the bound-join block size.
	BindBlockSize int
}

// Splendid is the engine.
type Splendid struct {
	eps   []endpoint.Endpoint
	idx   *Index
	cfg   Config
	asker *federation.Selector
}

// New builds SPLENDID over a prebuilt index.
func New(eps []endpoint.Endpoint, idx *Index, cfg Config) *Splendid {
	if cfg.BindBlockSize == 0 {
		cfg.BindBlockSize = 50
	}
	return &Splendid{
		eps:   eps,
		idx:   idx,
		cfg:   cfg,
		asker: federation.NewSelector(eps, federation.NewKnowledge(eps)),
	}
}

// Name implements federation.Engine.
func (s *Splendid) Name() string { return "splendid" }

// selectSources picks relevant endpoints per pattern from the VoID
// index; patterns with variable predicates fall back to ASK probes
// (as SPLENDID does for predicates missing from the catalog).
func (s *Splendid) selectSources(ctx context.Context, patterns []sparql.TriplePattern) ([][]int, error) {
	out := make([][]int, len(patterns))
	var askIdx []int
	for i, tp := range patterns {
		if tp.P.IsVar() {
			askIdx = append(askIdx, i)
			continue
		}
		for ei := range s.eps {
			if _, ok := s.idx.ByEndpoint[ei][tp.P.Term.Value]; ok {
				out[i] = append(out[i], ei)
			}
		}
	}
	if len(askIdx) > 0 {
		var probe []sparql.TriplePattern
		for _, i := range askIdx {
			probe = append(probe, patterns[i])
		}
		sel, err := s.asker.SelectPatterns(ctx, nil, probe)
		if err != nil {
			return nil, err
		}
		for k, i := range askIdx {
			out[i] = sel.Sources[k]
		}
	}
	return out, nil
}

// estimate returns the index-based cardinality estimate of a pattern
// over its sources.
func (s *Splendid) estimate(tp sparql.TriplePattern, sources []int) float64 {
	if tp.P.IsVar() {
		total := 0.0
		for _, ei := range sources {
			for _, info := range s.idx.ByEndpoint[ei] {
				total += float64(info.Triples)
			}
		}
		return total
	}
	total := 0.0
	for _, ei := range sources {
		info := s.idx.ByEndpoint[ei][tp.P.Term.Value]
		est := float64(info.Triples)
		// Bound subject/object: scale by distinct counts, the VoID
		// selectivity model.
		if !tp.S.IsVar() && info.DistinctSubjects > 0 {
			est /= float64(info.DistinctSubjects)
		}
		if !tp.O.IsVar() && info.DistinctObjects > 0 {
			est /= float64(info.DistinctObjects)
		}
		total += est
	}
	return total
}

// Execute runs the query.
func (s *Splendid) Execute(ctx context.Context, query string) (*sparql.Results, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	rows, err := s.evalGroup(ctx, q.Where)
	if err != nil {
		return nil, err
	}
	if q.Form == sparql.AskForm {
		return sparql.NewAskResult(len(rows) > 0), nil
	}
	return engine.Finalize(q, rows), nil
}

func (s *Splendid) evalGroup(ctx context.Context, g *sparql.GroupGraphPattern) ([]sparql.Binding, error) {
	sources, err := s.selectSources(ctx, g.Patterns)
	if err != nil {
		return nil, err
	}
	for i := range g.Patterns {
		if len(sources[i]) == 0 {
			return nil, nil
		}
	}
	// Order patterns by ascending index estimate, keeping the plan
	// connected when possible.
	order := s.orderPatterns(g.Patterns, sources)

	rows := []sparql.Binding{{}}
	boundVars := map[sparql.Var]bool{}
	first := true
	for _, pi := range order {
		tp := g.Patterns[pi]
		var err error
		rows, err = s.joinStep(ctx, rows, tp, sources[pi], first, boundVars)
		if err != nil {
			return nil, err
		}
		first = false
		if len(rows) == 0 {
			return nil, nil
		}
		for _, v := range tp.Vars() {
			boundVars[v] = true
		}
	}
	return sparql.EvalGroupOps(rows, g, g.Filters, func(a *sparql.GroupGraphPattern) ([]sparql.Binding, error) {
		return s.evalGroup(ctx, a)
	}, nil)
}

func (s *Splendid) orderPatterns(patterns []sparql.TriplePattern, sources [][]int) []int {
	type scored struct {
		idx int
		est float64
	}
	var items []scored
	for i, tp := range patterns {
		items = append(items, scored{i, s.estimate(tp, sources[i])})
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].est < items[b].est })
	// Greedy connectivity pass: start with the cheapest, then always
	// prefer a connected pattern.
	var order []int
	used := make([]bool, len(items))
	vars := map[sparql.Var]bool{}
	for len(order) < len(items) {
		pick := -1
		for k, it := range items {
			if used[k] {
				continue
			}
			connected := len(order) == 0
			for _, v := range patterns[it.idx].Vars() {
				if vars[v] {
					connected = true
				}
			}
			if connected {
				pick = k
				break
			}
			if pick < 0 {
				pick = k
			}
		}
		used[pick] = true
		order = append(order, items[pick].idx)
		for _, v := range patterns[items[pick].idx].Vars() {
			vars[v] = true
		}
	}
	return order
}

// joinStep executes one pattern: SPLENDID compares the cost of a hash
// join (fetch the whole pattern) with a bound join (ship current
// bindings) and picks the cheaper.
func (s *Splendid) joinStep(ctx context.Context, rows []sparql.Binding, tp sparql.TriplePattern, sources []int, first bool, boundVars map[sparql.Var]bool) ([]sparql.Binding, error) {
	shared := sharedPatternVars(tp, boundVars)
	est := s.estimate(tp, sources)
	useBound := !first && len(shared) > 0 &&
		float64(len(rows))/float64(s.cfg.BindBlockSize)*float64(len(sources)) < est

	if !useBound {
		fetched, err := s.fetchAll(ctx, tp, sources, nil)
		if err != nil {
			return nil, err
		}
		if first {
			return fetched, nil
		}
		return sparql.Join(rows, fetched), nil
	}

	var out []sparql.Binding
	block := s.cfg.BindBlockSize
	for lo := 0; lo < len(rows); lo += block {
		hi := lo + block
		if hi > len(rows) {
			hi = len(rows)
		}
		blockRows := rows[lo:hi]
		fetched, err := s.fetchAll(ctx, tp, sources, sparql.ValuesOf(blockRows, shared))
		if err != nil {
			return nil, err
		}
		out = append(out, sparql.Join(blockRows, fetched)...)
	}
	return out, nil
}

func (s *Splendid) fetchAll(ctx context.Context, tp sparql.TriplePattern, sources []int, vb *sparql.ValuesBlock) ([]sparql.Binding, error) {
	q := sparql.NewSelect()
	q.Where = &sparql.GroupGraphPattern{Patterns: []sparql.TriplePattern{tp}}
	if vb != nil {
		q.Where.Values = []*sparql.ValuesBlock{vb}
	}
	text := q.String()
	tasks := make([]federation.Task, len(sources))
	for i, ei := range sources {
		tasks[i] = federation.Task{EP: s.eps[ei], Query: text}
	}
	// Rows are kept in source order; the first failure cancels the
	// requests still pending.
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
		return nil, fmt.Errorf("splendid: %w", firstErr)
	}
	rows := slices.Concat(parts...)
	// Pattern fetches project all variables; dedup across endpoints
	// for exact RDF-merge semantics.
	return sparql.Dedup(nil, rows, tp.Vars()), nil
}

func sharedPatternVars(tp sparql.TriplePattern, bound map[sparql.Var]bool) []sparql.Var {
	var out []sparql.Var
	for _, v := range tp.Vars() {
		if bound[v] {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
