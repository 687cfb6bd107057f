package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"lusail/internal/benchdata/largerdf"
	"lusail/internal/benchdata/lubm"
	"lusail/internal/benchdata/qfed"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// orderKind is how a workload deals its distinct queries into a
// request sequence.
type orderKind int

const (
	roundRobin    orderKind = iota // q0 q1 q2 q0 q1 q2 ...
	shuffleCycles                  // every query once per cycle, cycle order seeded
	zipfBlocks                     // Zipf(1.3) shares per block of 100, block order seeded
)

type namedQuery struct {
	name, text string
}

// workload is one traffic mix against one federation. Everything that
// differs between workloads is an input (data, queries, order, nonce,
// endpoint delay, churn); the server under test always runs with the
// same flags.
type workload struct {
	name string
	why  string
	// federation builds the endpoint names and graphs. The data is the
	// deployment, not the traffic: it comes from the generator's own
	// fixed seed, because a different graph flips SAPE's delay decisions
	// (bound-wan ran 11.2, 12.3 or 13.5 requests per query depending on
	// the data seed), which is a different workload, not noise. The
	// run's seed drives request order, nonces and churn.
	federation func(scale int) ([]string, []rdf.Graph)
	// scale multiplies the generator's entity counts. Scale 1 is the
	// ~1 ms regime the old numbers lived in; each workload's scale was
	// probed on a 2-core box so that queries run tens of milliseconds
	// over thousands of rows and a 12 s section still gives the tail
	// percentile its samples.
	scale   int
	queries []namedQuery
	order   orderKind
	// nonce appends a unique no-op FILTER to every request so its
	// subqueries miss the cross-query caches.
	nonce bool
	// delay is slept by the harness's endpoint servers before each
	// request (the WAN stand-in).
	delay time.Duration
	// churnEvery applies one churn batch to one endpoint, round-robin,
	// at this period while requests run (0 = none).
	churnEvery time.Duration
}

func lubmFederation(scale int) ([]string, []rdf.Graph) {
	cfg := lubm.DefaultConfig(4)
	cfg.Scale = scale
	names := make([]string, cfg.Universities)
	for i := range names {
		names[i] = fmt.Sprintf("univ%d", i)
	}
	return names, lubm.Generate(cfg)
}

func qfedFederation(scale int) ([]string, []rdf.Graph) {
	cfg := qfed.DefaultConfig()
	cfg.Drugs *= scale
	return qfed.EndpointNames, qfed.Generate(cfg)
}

func largerdfFederation(scale int) ([]string, []rdf.Graph) {
	cfg := largerdf.DefaultConfig()
	cfg.Scale = scale
	return largerdf.EndpointNames, largerdf.Generate(cfg)
}

func pick(all map[string]string, names ...string) []namedQuery {
	out := make([]namedQuery, len(names))
	for i, n := range names {
		out[i] = namedQuery{n, all[n]}
	}
	return out
}

func largerdfQueries() []namedQuery {
	out := pick(largerdf.SimpleQueries, largerdf.QueryNames("S")...)
	return append(out, pick(largerdf.ComplexQueries, largerdf.QueryNames("C")...)...)
}

// workloads is the benchmark's fixed set; BENCHMARK.json declares the
// same names (bench_test.go checks the two agree).
var workloads = []*workload{
	{
		name:       "join-heavy",
		why:        "LUBM Q1/Q2/Q4, cache-bypassing: few requests, 4.5k-6k-row relations; decode, hash join and encode dominate",
		federation: lubmFederation,
		scale:      4,
		queries:    pick(lubm.Queries, "Q1", "Q2", "Q4"),
		order:      roundRobin,
		nonce:      true,
	},
	{
		name:       "bound-wan",
		why:        "QFed C2P2 family behind a 10 ms sleep per endpoint request: round trips and phase-2 VALUES blocks dominate, CPU does not",
		federation: qfedFederation,
		scale:      2,
		queries:    pick(qfed.Queries, "C2P2", "C2P2BO", "Drug"),
		order:      roundRobin,
		nonce:      true,
		delay:      10 * time.Millisecond,
	},
	{
		name:       "plan-mix",
		why:        "LargeRDFBench S+C over 13 endpoints, cache-bypassing: small answers, so per-query fixed cost (parse, probes, planning, telemetry) dominates",
		federation: largerdfFederation,
		scale:      8,
		queries:    largerdfQueries(),
		order:      shuffleCycles,
		nonce:      true,
	},
	{
		name:       "zipf-repeat",
		why:        "Zipf(1.3) over plain LUBM Q1-Q4: the cache-hit path (subquery cache, planning caches, summaries, singleflight)",
		federation: lubmFederation,
		scale:      4,
		queries:    pick(lubm.Queries, "Q1", "Q2", "Q3", "Q4"),
		order:      zipfBlocks,
	},
	{
		name:       "zipf-churn",
		why:        "zipf-repeat while one endpoint's data version bumps every 250 ms: invalidation and fencing cost beside the hit path",
		federation: lubmFederation,
		scale:      4,
		queries:    pick(lubm.Queries, "Q1", "Q2", "Q3", "Q4"),
		order:      zipfBlocks,
		churnEvery: 250 * time.Millisecond,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// zipfExponent matches the `-exp workload` replay: over four queries
// the head query is a little over half the traffic.
const zipfExponent = 1.3

// zipfBlock is the number of requests over which the Zipf shares are
// met exactly. Dealing exact shares per block (and shuffling inside
// it) keeps the query mix identical for every seed and every prefix
// length; only the order is random.
const zipfBlock = 100

// zipfCounts splits a block of total requests over n ranks with
// weights 1/(k+1)^s, largest remainder first.
func zipfCounts(n, total int) []int {
	weights := make([]float64, n)
	var sum float64
	for k := range weights {
		weights[k] = 1 / math.Pow(float64(k+1), zipfExponent)
		sum += weights[k]
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	left := total
	for k, w := range weights {
		exact := w / sum * float64(total)
		counts[k] = int(exact)
		rem[k] = exact - float64(counts[k])
		left -= counts[k]
	}
	for ; left > 0; left-- {
		best := 0
		for k := range rem {
			if rem[k] > rem[best] {
				best = k
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// sequenceCycles is how many cycles (or Zipf blocks) a sequence holds
// before it repeats; nonces keep counting, so a repeat re-deals the
// same order with fresh cache keys.
const sequenceCycles = 64

// sequence returns the seeded request order as indexes into
// w.queries. Request i of a run asks for queries[seq[i%len(seq)]].
func (w *workload) sequence(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	n := len(w.queries)
	var seq []int
	switch w.order {
	case roundRobin:
		for i := 0; i < n; i++ {
			seq = append(seq, i)
		}
	case shuffleCycles:
		for c := 0; c < sequenceCycles; c++ {
			seq = append(seq, rng.Perm(n)...)
		}
	case zipfBlocks:
		counts := zipfCounts(n, zipfBlock)
		for c := 0; c < sequenceCycles; c++ {
			block := make([]int, 0, zipfBlock)
			for k, cnt := range counts {
				for j := 0; j < cnt; j++ {
					block = append(block, k)
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			seq = append(seq, block...)
		}
	}
	return seq
}

// noncer rewrites a query so that it keeps its answer but shares no
// subquery text with any other request. In every group of the query
// (the outer one, each OPTIONAL, each UNION branch) it adds, for the
// first variable of each triple pattern, a FILTER that compares the
// variable with an IRI no dataset contains. Every pattern then has a
// filtered variable, so whichever way the engine cuts the patterns
// into subqueries, each one carries a pushed-down filter and its cache
// key and filtered COUNT probes are unique. (A filter on the first
// projected variable alone leaves the subqueries that do not bind it
// shared between requests; they were served from the subquery cache.)
type noncer struct {
	query *sparql.Query
	iri   *sparql.TermExpr // shared by every added filter, rewritten per request
}

func newNoncer(text string) (*noncer, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, err
	}
	n := &noncer{query: q, iri: &sparql.TermExpr{}}
	var walk func(g *sparql.GroupGraphPattern)
	walk = func(g *sparql.GroupGraphPattern) {
		seen := map[sparql.Var]bool{}
		for _, tp := range g.Patterns {
			vars := tp.Vars()
			if len(vars) == 0 || seen[vars[0]] {
				continue
			}
			seen[vars[0]] = true
			g.Filters = append(g.Filters, &sparql.BinaryExpr{Op: "!=", Left: &sparql.VarExpr{Name: vars[0]}, Right: n.iri})
		}
		for _, o := range g.Optionals {
			walk(o)
		}
		for _, u := range g.Unions {
			for _, alt := range u.Alternatives {
				walk(alt)
			}
		}
	}
	walk(q.Where)
	return n, nil
}

// text renders the query with nonce k. Not safe for concurrent use.
func (n *noncer) text(k int64) string {
	n.iri.Term = rdf.IRI(fmt.Sprintf("urn:bench:nonce:%d", k))
	return n.query.String()
}

// requests turns a workload and a seed into request texts.
type requests struct {
	w       *workload
	seq     []int
	noncers []*noncer
	mu      sync.Mutex // noncers render through shared state
}

func newRequests(w *workload, seed int64) (*requests, error) {
	r := &requests{w: w, seq: w.sequence(seed)}
	if w.nonce {
		for _, q := range w.queries {
			n, err := newNoncer(q.text)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", w.name, q.name, err)
			}
			r.noncers = append(r.noncers, n)
		}
	}
	return r, nil
}

// at returns request i: which distinct query it is and its text.
func (r *requests) at(i int) (query int, text string) {
	query = r.seq[i%len(r.seq)]
	return query, r.textOf(query, int64(i))
}

// textOf renders distinct query q with nonce k (ignored when the
// workload sends plain queries).
func (r *requests) textOf(q int, k int64) string {
	if !r.w.nonce {
		return r.w.queries[q].text
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.noncers[q].text(k)
}
