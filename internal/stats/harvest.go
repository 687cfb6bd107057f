package stats

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

const (
	// pageSize bounds each paged discovery query (distinct predicates,
	// distinct classes).
	pageSize = 256
	// maxJoinPredicates caps how many predicates (the heaviest by
	// triple count) get pairwise join summaries; the matrices cost
	// O(K^2) harvest queries.
	maxJoinPredicates = 16
)

// harvest builds one endpoint's summary through its ordinary query
// interface: paged DISTINCT discovery of predicates and classes, then
// COUNT aggregation per predicate, class, and predicate pair. Every
// query is plain SPARQL, so the harvester works identically over
// in-process Local endpoints and remote HTTP ones.
func harvest(ctx context.Context, ep endpoint.Endpoint) (*Summary, error) {
	h := &harvester{ep: ep}
	sum := &Summary{
		Endpoint:   ep.Name(),
		Predicates: map[string]PredicateStats{},
		Classes:    map[string]float64{},
		joinPreds:  map[string]bool{},
		star:       map[pair]float64{},
		chain:      map[pair]float64{},
		obj:        map[pair]float64{},
	}
	defer func() { sum.Queries = h.queries }()

	total, err := h.count(ctx, countQuery("", varPattern()))
	if err != nil {
		return sum, err
	}
	sum.Total = total

	preds, err := h.page(ctx, "p", varPattern())
	if err != nil {
		return sum, err
	}
	for _, p := range preds {
		tp := predPattern(p)
		var ps PredicateStats
		if ps.Triples, err = h.count(ctx, countQuery("", tp)); err != nil {
			return sum, err
		}
		if ps.DistinctSubjects, err = h.count(ctx, countQuery("s", tp)); err != nil {
			return sum, err
		}
		if ps.DistinctObjects, err = h.count(ctx, countQuery("o", tp)); err != nil {
			return sum, err
		}
		sum.Predicates[p] = ps
	}

	classes, err := h.page(ctx, "o", predPattern(rdf.RDFType))
	if err != nil {
		return sum, err
	}
	for _, c := range classes {
		tp := sparql.TriplePattern{S: sparql.V("s"), P: sparql.C(rdf.IRI(rdf.RDFType)), O: sparql.C(rdf.IRI(c))}
		n, err := h.count(ctx, countQuery("s", tp))
		if err != nil {
			return sum, err
		}
		sum.Classes[c] = n
	}

	// Pair matrices over the heaviest predicates: the O(K^2) join
	// summaries that let LADE containment checks and join cardinality
	// refinement run without probes.
	join := topPredicates(sum.Predicates, maxJoinPredicates)
	for _, p := range join {
		sum.joinPreds[p] = true
	}
	for i, p := range join {
		for _, q := range join[i:] {
			if p == q {
				// Degenerate pairs equal the single-predicate
				// distinct counts; no query needed.
				sum.star[orderedPair(p, q)] = sum.Predicates[p].DistinctSubjects
				sum.obj[orderedPair(p, q)] = sum.Predicates[p].DistinctObjects
			} else {
				v, err := h.count(ctx, pairQuery(
					sparql.TriplePattern{S: sparql.V("x"), P: sparql.C(rdf.IRI(p)), O: sparql.V("a")},
					sparql.TriplePattern{S: sparql.V("x"), P: sparql.C(rdf.IRI(q)), O: sparql.V("b")}))
				if err != nil {
					return sum, err
				}
				sum.star[orderedPair(p, q)] = v
				if v, err = h.count(ctx, pairQuery(
					sparql.TriplePattern{S: sparql.V("s"), P: sparql.C(rdf.IRI(p)), O: sparql.V("x")},
					sparql.TriplePattern{S: sparql.V("t"), P: sparql.C(rdf.IRI(q)), O: sparql.V("x")})); err != nil {
					return sum, err
				}
				sum.obj[orderedPair(p, q)] = v
			}
		}
	}
	for _, p := range join {
		for _, q := range join {
			v, err := h.count(ctx, pairQuery(
				sparql.TriplePattern{S: sparql.V("s"), P: sparql.C(rdf.IRI(p)), O: sparql.V("x")},
				sparql.TriplePattern{S: sparql.V("x"), P: sparql.C(rdf.IRI(q)), O: sparql.V("b")}))
			if err != nil {
				return sum, err
			}
			sum.chain[pair{p, q}] = v
		}
	}

	sum.HarvestedAt = time.Now()
	return sum, nil
}

type harvester struct {
	ep      endpoint.Endpoint
	queries int
}

// count runs one aggregation query and parses its single-row count.
func (h *harvester) count(ctx context.Context, q string) (float64, error) {
	h.queries++
	res, err := h.ep.Query(ctx, q)
	if err != nil {
		return 0, err
	}
	if res.Len() != 1 {
		return 0, fmt.Errorf("aggregation returned %d rows for %s", res.Len(), q)
	}
	t, ok := res.Rows[0][sparql.Var("c")]
	if !ok {
		return 0, fmt.Errorf("aggregation result missing ?c for %s", q)
	}
	n, err := strconv.ParseFloat(t.Value, 64)
	if err != nil {
		return 0, fmt.Errorf("bad aggregation literal %q", t.Value)
	}
	return n, nil
}

// page enumerates the distinct values of one variable of tp with
// ORDER BY / LIMIT / OFFSET paging, so discovery stays bounded per
// request even against endpoints holding millions of terms.
func (h *harvester) page(ctx context.Context, v sparql.Var, tp sparql.TriplePattern) ([]string, error) {
	var out []string
	for offset := 0; ; offset += pageSize {
		q := sparql.NewSelect()
		q.Distinct = true
		q.Vars = []sparql.Var{v}
		q.Where = &sparql.GroupGraphPattern{Patterns: []sparql.TriplePattern{tp}}
		q.OrderBy = []sparql.OrderKey{{Var: v}}
		q.Limit = pageSize
		q.Offset = offset
		h.queries++
		res, err := h.ep.Query(ctx, q.String())
		if err != nil {
			return nil, err
		}
		for _, row := range res.Rows {
			if t, ok := row[v]; ok {
				out = append(out, t.Value)
			}
		}
		if res.Len() < pageSize {
			return out, nil
		}
	}
}

// varPattern is ?s ?p ?o.
func varPattern() sparql.TriplePattern {
	return sparql.TriplePattern{S: sparql.V("s"), P: sparql.V("p"), O: sparql.V("o")}
}

// predPattern is ?s <p> ?o.
func predPattern(p string) sparql.TriplePattern {
	return sparql.TriplePattern{S: sparql.V("s"), P: sparql.C(rdf.IRI(p)), O: sparql.V("o")}
}

// countQuery renders SELECT (COUNT(*) AS ?c) — or COUNT(DISTINCT ?arg)
// when arg is non-empty — over one pattern.
func countQuery(arg sparql.Var, tp sparql.TriplePattern) string {
	q := sparql.NewSelect()
	q.Count = true
	q.CountVar = "c"
	if arg != "" {
		q.CountArg = arg
		q.CountDistinct = true
	}
	q.Where = &sparql.GroupGraphPattern{Patterns: []sparql.TriplePattern{tp}}
	return q.String()
}

// pairQuery renders SELECT (COUNT(DISTINCT ?x) AS ?c) over two
// patterns sharing ?x.
func pairQuery(a, b sparql.TriplePattern) string {
	q := sparql.NewSelect()
	q.Count = true
	q.CountVar = "c"
	q.CountArg = "x"
	q.CountDistinct = true
	q.Where = &sparql.GroupGraphPattern{Patterns: []sparql.TriplePattern{a, b}}
	return q.String()
}

// orderedPair canonicalizes an unordered pair key.
func orderedPair(p, q string) pair {
	if p > q {
		p, q = q, p
	}
	return pair{p, q}
}

// topPredicates returns up to k predicates by descending triple count
// (ties broken lexically, for determinism).
func topPredicates(preds map[string]PredicateStats, k int) []string {
	names := make([]string, 0, len(preds))
	for p := range preds {
		names = append(names, p)
	}
	sort.Slice(names, func(i, j int) bool {
		ti, tj := preds[names[i]].Triples, preds[names[j]].Triples
		if ti != tj {
			return ti > tj
		}
		return names[i] < names[j]
	})
	if len(names) > k {
		names = names[:k]
	}
	return names
}
