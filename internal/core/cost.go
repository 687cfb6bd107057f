package core

import (
	"context"
	"math"

	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/sparql"
	"lusail/internal/stats"
)

// DelayPolicy selects the threshold above which a subquery is delayed
// (Fig. 9 sweeps these policies; the paper adopts MuSigma).
type DelayPolicy int

const (
	// DelayMuSigma delays subqueries above mean + one stddev (the
	// paper's default).
	DelayMuSigma DelayPolicy = iota
	// DelayMu delays subqueries above the mean.
	DelayMu
	// DelayMu2Sigma delays subqueries above mean + two stddevs.
	DelayMu2Sigma
	// DelayOutliersOnly delays only Chauvenet-rejected outliers.
	DelayOutliersOnly
	// DelayNone disables delaying entirely (SAPE ablation: fully
	// concurrent execution).
	DelayNone
	// DelayAll delays every subquery but the most selective one (SAPE
	// ablation: fully sequential bound execution).
	DelayAll
)

// String names the policy for reports.
func (p DelayPolicy) String() string {
	switch p {
	case DelayMu:
		return "mu"
	case DelayMuSigma:
		return "mu+sigma"
	case DelayMu2Sigma:
		return "mu+2sigma"
	case DelayOutliersOnly:
		return "outliers"
	case DelayNone:
		return "none"
	case DelayAll:
		return "all"
	default:
		return "unknown"
	}
}

// CostModel estimates subquery cardinalities from per-(pattern,
// endpoint) counts (§V-A). A count resolves through the shared plan
// knowledge — a stored COUNT answer, else the endpoint's statistics
// summary — and only then by a lightweight COUNT probe; filtered
// patterns skip the summary, which knows nothing about filter
// selectivity.
type CostModel struct {
	Endpoints []endpoint.Endpoint
	Know      *federation.Knowledge

	// Calibration, when non-nil, returns the learned q-error
	// correction factor for (endpoint ei, tp's predicate); 1 means
	// uncalibrated. Factors from every (source, pattern) of a subquery
	// are combined geometrically and rescale its estimate.
	Calibration func(ei int, tp sparql.TriplePattern) float64
}

// NewCostModel builds a cost model over the endpoints; know may be nil.
func NewCostModel(eps []endpoint.Endpoint, know *federation.Knowledge) *CostModel {
	return &CostModel{Endpoints: eps, Know: know}
}

// CountQuery renders the statistics query for one pattern, pushing any
// filters that mention only the pattern's variables.
func CountQuery(tp sparql.TriplePattern, filters []sparql.Expr) string {
	cq, _ := countQueryFor(tp, filters)
	return cq
}

// countQueryFor renders the COUNT probe for one pattern and reports
// whether any filter was pushed into it.
func countQueryFor(tp sparql.TriplePattern, filters []sparql.Expr) (string, bool) {
	q := sparql.NewSelect()
	q.Count = true
	q.CountVar = federation.CountVar
	q.Where = &sparql.GroupGraphPattern{Patterns: []sparql.TriplePattern{tp}}
	for _, f := range filters {
		ok := true
		for _, v := range f.Vars() {
			if !tp.HasVar(v) {
				ok = false
				break
			}
		}
		if ok {
			if _, isExists := f.(*sparql.ExistsExpr); !isExists {
				q.Where.Filters = append(q.Where.Filters, f)
			}
		}
	}
	return q.String(), len(q.Where.Filters) > 0
}

// countProbe identifies one (count query, endpoint) question.
type countProbe struct {
	query string
	ep    int
}

// pessimisticCard pushes an unprobeable pattern toward "delayed",
// where bound execution naturally limits its cost.
const pessimisticCard = 1e6

// EstimateStats reports how an estimation pass resolved its
// (pattern, endpoint) cardinalities.
type EstimateStats struct {
	// Probes is the number of COUNT requests sent to endpoints.
	Probes int
	// SummaryHits is the number of cardinalities answered locally from
	// a precomputed statistics summary.
	SummaryHits int
}

// EstimateCards fills EstCard on every subquery:
//
//	C(sq, v, ep) = min over patterns containing v of C(TP, ep)
//	C(sq, v)     = sum over relevant ep of C(sq, v, ep)
//	C(sq)        = max over projected v of C(sq, v)
//
// It returns how the pass resolved its counts. A COUNT probe failure dg
// absorbs leaves the pattern at pessimisticCard; any other fails the
// pass.
func (cm *CostModel) EstimateCards(ctx context.Context, dg *endpoint.Degrade, sqs []*Subquery) (EstimateStats, error) {
	var est EstimateStats
	// The distinct (count query, endpoint) questions of the pass; texts
	// keeps each pattern's rendered query so it is rendered once.
	counts := map[countProbe]float64{}
	texts := make([][]string, len(sqs))
	var pending []federation.Question
	var order []countProbe
	for si, sq := range sqs {
		texts[si] = make([]string, len(sq.Patterns))
		for pi, tp := range sq.Patterns {
			cq, filtered := countQueryFor(tp, sq.Filters)
			texts[si][pi] = cq
			q := federation.Question{Kind: federation.KindCount, Text: cq}
			if !filtered {
				q.Summary = func(sum *stats.Summary) (float64, bool) { return sum.PatternCard(tp) }
			}
			for _, ei := range sq.Sources {
				key := countProbe{cq, ei}
				if _, seen := counts[key]; seen {
					continue
				}
				q.EP = cm.Endpoints[ei]
				v, tier := cm.Know.Lookup(&q)
				switch tier {
				case federation.TierNone:
					// Until a probe says otherwise. A failed probe under an
					// active degradation policy leaves it there: a wrong
					// estimate only affects which subqueries are delayed,
					// never answer correctness.
					v = pessimisticCard
					pending = append(pending, q)
					order = append(order, key)
				case federation.TierSummary:
					est.SummaryHits++
				}
				counts[key] = v
			}
		}
	}
	est.Probes = len(pending)
	answers, err := cm.Know.Probe(ctx, dg, "count-estimation", pending)
	if err != nil {
		return est, err
	}
	for i, a := range answers {
		if a.OK {
			counts[order[i]] = a.Value
		}
	}

	for si, sq := range sqs {
		sq.EstCard = cm.subqueryCard(sq, func(pi, ei int) float64 {
			return counts[countProbe{texts[si][pi], ei}]
		}) * cm.calibration(sq)
	}
	return est, nil
}

// calibration combines the learned per-(endpoint, predicate)
// correction factors touched by sq into one geometric-mean rescale.
func (cm *CostModel) calibration(sq *Subquery) float64 {
	if cm.Calibration == nil {
		return 1
	}
	var logSum float64
	n := 0
	for _, ei := range sq.Sources {
		for _, tp := range sq.Patterns {
			if f := cm.Calibration(ei, tp); f > 0 {
				logSum += math.Log(f)
				n++
			}
		}
	}
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}

// subqueryCard combines the per-(pattern index, endpoint) counts into
// C(sq).
func (cm *CostModel) subqueryCard(sq *Subquery, count func(pi, ei int) float64) float64 {
	if len(sq.Patterns) == 0 || len(sq.Sources) == 0 {
		return 0
	}
	vars := sq.ProjVars
	if len(vars) == 0 {
		vars = sq.Vars()
	}
	best := 0.0
	for _, v := range vars {
		var total float64
		for _, ei := range sq.Sources {
			perEP := math.Inf(1)
			saw := false
			for pi, tp := range sq.Patterns {
				if !tp.HasVar(v) {
					continue
				}
				saw = true
				if c := count(pi, ei); c < perEP {
					perEP = c
				}
			}
			if saw {
				if c, ok := cm.pairMin(sq, v, ei); ok && c < perEP {
					perEP = c
				}
				total += perEP
			}
		}
		if total > best {
			best = total
		}
	}
	return best
}

// pairMin tightens the per-endpoint cardinality of v below the
// single-pattern minimum using the summary's predicate-pair counts: the
// number of distinct v values satisfying two patterns jointly is never
// larger than either pattern's count alone.
func (cm *CostModel) pairMin(sq *Subquery, v sparql.Var, ei int) (float64, bool) {
	name := cm.Endpoints[ei].Name()
	min := math.Inf(1)
	found := false
	for i, a := range sq.Patterns {
		if !a.HasVar(v) {
			continue
		}
		for _, b := range sq.Patterns[i+1:] {
			if !b.HasVar(v) {
				continue
			}
			if c, ok := cm.Know.PairCard(name, v, a, b); ok {
				found = true
				if c < min {
					min = c
				}
			}
		}
	}
	return min, found
}

// Chauvenet applies Chauvenet's criterion once: a point is rejected
// when the expected number of samples as extreme as it is falls below
// 1/2. It returns the kept values and the rejected indexes.
func Chauvenet(xs []float64) (kept []float64, rejected []int) {
	n := float64(len(xs))
	if len(xs) < 3 {
		return append([]float64(nil), xs...), nil
	}
	mu, sigma := meanStd(xs)
	if sigma == 0 {
		return append([]float64(nil), xs...), nil
	}
	for i, x := range xs {
		p := math.Erfc(math.Abs(x-mu) / (sigma * math.Sqrt2))
		if n*p < 0.5 {
			rejected = append(rejected, i)
		} else {
			kept = append(kept, x)
		}
	}
	return kept, rejected
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func meanStd(xs []float64) (mu, sigma float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mu += x
	}
	mu /= float64(len(xs))
	for _, x := range xs {
		sigma += (x - mu) * (x - mu)
	}
	sigma = math.Sqrt(sigma / float64(len(xs)))
	return mu, sigma
}

// MarkDelayed sets Delayed on each subquery according to the policy:
// Chauvenet-filtered mean/stddev thresholds over both estimated
// cardinality and number of relevant endpoints (§V-A). OPTIONAL
// subqueries are always delayed (they are the paper's third class of
// delay candidates). At least one subquery always stays non-delayed.
func MarkDelayed(sqs []*Subquery, policy DelayPolicy) {
	// OPTIONAL subqueries are always delayed; the statistics below are
	// computed over the required subqueries only so that optionals do
	// not skew the thresholds.
	var req []*Subquery
	for _, sq := range sqs {
		sq.Delayed = sq.Optional
		if !sq.Optional {
			req = append(req, sq)
		}
	}
	if len(req) <= 1 {
		return
	}
	cards := make([]float64, len(req))
	srcs := make([]float64, len(req))
	for i, sq := range req {
		cards[i] = sq.EstCard
		srcs[i] = float64(len(sq.Sources))
	}

	switch policy {
	case DelayNone:
		return
	case DelayAll:
		minIdx := 0
		for i, sq := range req {
			if sq.EstCard < req[minIdx].EstCard {
				minIdx = i
			}
		}
		for i, sq := range req {
			sq.Delayed = i != minIdx
		}
		return
	case DelayOutliersOnly:
		_, rejC := Chauvenet(cards)
		_, rejE := Chauvenet(srcs)
		for _, i := range rejC {
			req[i].Delayed = true
		}
		for _, i := range rejE {
			req[i].Delayed = true
		}
	default:
		k := 1.0
		if policy == DelayMu {
			k = 0
		} else if policy == DelayMu2Sigma {
			k = 2
		}
		keptC, _ := Chauvenet(cards)
		keptE, _ := Chauvenet(srcs)
		muC, sigC := meanStd(keptC)
		muE, sigE := meanStd(keptE)
		// The comparison is >= with a strict >min guard: with only two
		// subqueries mu+sigma equals the maximum, so a strict > could
		// never delay anything (e.g. LUBM Q3's generic type subquery,
		// which the paper delays); the >min guard keeps uniform
		// workloads fully concurrent.
		minC, minE := minOf(cards), minOf(srcs)
		for i, sq := range req {
			sq.Delayed = (cards[i] >= muC+k*sigC && cards[i] > minC) ||
				(srcs[i] >= muE+k*sigE && srcs[i] > minE)
		}
	}
	// Guarantee progress: at least one required subquery stays live to
	// supply the first bindings.
	for _, sq := range req {
		if !sq.Delayed {
			return
		}
	}
	minIdx := 0
	for i, sq := range req {
		if sq.EstCard < req[minIdx].EstCard {
			minIdx = i
		}
	}
	req[minIdx].Delayed = false
}
