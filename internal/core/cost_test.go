package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

func TestChauvenet(t *testing.T) {
	// One extreme outlier among uniform samples is rejected.
	xs := []float64{10, 11, 9, 10, 12, 10, 11, 1e6}
	kept, rejected := Chauvenet(xs)
	if len(rejected) != 1 || rejected[0] != 7 {
		t.Errorf("rejected = %v, want [7]", rejected)
	}
	if len(kept) != 7 {
		t.Errorf("kept = %d values", len(kept))
	}
	// Homogeneous data rejects nothing.
	if _, rej := Chauvenet([]float64{5, 5, 5, 5}); len(rej) != 0 {
		t.Errorf("uniform data rejected %v", rej)
	}
	// Too few samples: no rejection.
	if _, rej := Chauvenet([]float64{1, 1e9}); len(rej) != 0 {
		t.Errorf("two samples rejected %v", rej)
	}
}

func TestMeanStd(t *testing.T) {
	mu, sigma := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mu != 5 {
		t.Errorf("mu = %v", mu)
	}
	if math.Abs(sigma-2) > 1e-9 {
		t.Errorf("sigma = %v", sigma)
	}
	mu, sigma = meanStd(nil)
	if mu != 0 || sigma != 0 {
		t.Error("empty input should give zeros")
	}
}

func TestCountQueryPushesFilters(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE {
		?s <http://ex/age> ?a .
		?s <http://ex/name> ?n .
		FILTER (?a > 10)
		FILTER (?n != "x")
	}`)
	cq := CountQuery(q.Where.Patterns[0], q.Where.Filters)
	if !strings.Contains(cq, "COUNT") {
		t.Errorf("count query missing COUNT: %s", cq)
	}
	if !strings.Contains(cq, "?a > ") {
		t.Errorf("single-variable filter on ?a should be pushed: %s", cq)
	}
	if strings.Contains(cq, `"x"`) {
		t.Errorf("filter on ?n must not be pushed into the ?a pattern: %s", cq)
	}
	if _, err := sparql.Parse(cq); err != nil {
		t.Errorf("count query does not parse: %v\n%s", err, cq)
	}
}

func TestEstimateCards(t *testing.T) {
	eps := uniEndpoints()
	cm := NewCostModel(eps, federation.NewKnowledge(eps))
	q := sparql.MustParse(testfed.QaChain)
	// Subqueries mirroring the chain decomposition.
	sq1 := &Subquery{Patterns: q.Where.Patterns[0:2], Sources: []int{0, 1}, OptionalGroup: -1}
	sq2 := &Subquery{Patterns: q.Where.Patterns[2:3], Sources: []int{0, 1}, OptionalGroup: -1}
	sq3 := &Subquery{Patterns: q.Where.Patterns[3:4], Sources: []int{0, 1}, OptionalGroup: -1}
	sqs := []*Subquery{sq1, sq2, sq3}
	ComputeProjections(sqs, []sparql.Var{"S", "A"})
	est, err := cm.EstimateCards(context.Background(), nil, sqs)
	if err != nil {
		t.Fatal(err)
	}
	if est.Probes == 0 {
		t.Error("expected COUNT probes on a cold cache")
	}
	// advisor: EP1 has 2, EP2 has 2 => C(sq1,P) = 2+2 = 4 (min over
	// patterns containing P is just advisor's count).
	if sq1.EstCard != 4 {
		t.Errorf("sq1 card = %v, want 4", sq1.EstCard)
	}
	// PhDDegreeFrom: EP1 2, EP2 2 => 4.
	if sq2.EstCard != 4 {
		t.Errorf("sq2 card = %v, want 4", sq2.EstCard)
	}
	// address: EP1 1, EP2 1 => 2.
	if sq3.EstCard != 2 {
		t.Errorf("sq3 card = %v, want 2", sq3.EstCard)
	}
	// Second run: fully cached.
	est2, err := cm.EstimateCards(context.Background(), nil, sqs)
	if err != nil {
		t.Fatal(err)
	}
	if est2.Probes != 0 {
		t.Errorf("cached run sent %d probes", est2.Probes)
	}
}

// TestEstimateCardsDroppedProbeIsPessimistic: under an active
// degradation policy a COUNT probe that fails is dropped, and its
// pattern counts as pessimisticCard at that endpoint — pushing the
// subquery toward "delayed" — instead of failing the estimation or
// standing in as a small (selective-looking) number.
func TestEstimateCardsDroppedProbeIsPessimistic(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	eps := []endpoint.Endpoint{ep1, endpoint.NewFaulty(ep2, endpoint.FaultConfig{Down: true})}
	cm := NewCostModel(eps, federation.NewKnowledge(eps))
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://ex/advisor> ?p }`)
	sq := &Subquery{Patterns: q.Where.Patterns, Sources: []int{0, 1}, OptionalGroup: -1, ProjVars: []sparql.Var{"s"}}

	if _, err := cm.EstimateCards(context.Background(), nil, []*Subquery{sq}); err == nil {
		t.Fatal("a dead endpoint went unnoticed without a degradation policy")
	}
	dg := endpoint.NewDegrade(endpoint.DegradeBestEffort, time.Time{})
	est, err := cm.EstimateCards(context.Background(), dg, []*Subquery{sq})
	if err != nil {
		t.Fatal(err)
	}
	if est.Probes != 2 {
		t.Errorf("probes = %d, want 2", est.Probes)
	}
	// EP1's two advisor triples plus the dead endpoint's pessimistic share.
	if sq.EstCard != 2+pessimisticCard {
		t.Errorf("card = %v, want %v", sq.EstCard, 2+pessimisticCard)
	}
	if d := dg.Drops(); len(d) != 1 || d[0].Endpoint != "EP2" || d[0].Phase != "count-estimation" {
		t.Errorf("drops = %+v, want EP2@count-estimation", d)
	}
}

func TestEstimateCardsMinOverPatterns(t *testing.T) {
	// C(sq, v, ep) must be the min across patterns sharing v.
	eps := uniEndpoints()
	cm := NewCostModel(eps, federation.NewKnowledge(eps))
	q := sparql.MustParse(`SELECT * WHERE {
		?s <http://ex/advisor> ?p .
		?s a <http://ex/GraduateStudent> .
	}`)
	sq := &Subquery{Patterns: q.Where.Patterns, Sources: []int{0, 1}, OptionalGroup: -1, ProjVars: []sparql.Var{"s"}}
	if _, err := cm.EstimateCards(context.Background(), nil, []*Subquery{sq}); err != nil {
		t.Fatal(err)
	}
	// advisor count: 2+2=4; type count: EP1 2 (Lee,Sam), EP2 1 (Kim).
	// min per endpoint: EP1 min(2,2)=2, EP2 min(2,1)=1 => 3.
	if sq.EstCard != 3 {
		t.Errorf("card = %v, want 3", sq.EstCard)
	}
}

func TestMarkDelayedPolicies(t *testing.T) {
	mk := func(cards []float64, srcs []int) []*Subquery {
		sqs := make([]*Subquery, len(cards))
		for i := range cards {
			sqs[i] = &Subquery{EstCard: cards[i], Sources: make([]int, srcs[i]), OptionalGroup: -1}
		}
		return sqs
	}
	// Cardinalities: three identical small ones, one huge outlier.
	cards := []float64{10, 10, 10, 100000}
	srcs := []int{2, 2, 2, 2}

	sqs := mk(cards, srcs)
	MarkDelayed(sqs, DelayMuSigma)
	if sqs[0].Delayed || sqs[1].Delayed || sqs[2].Delayed {
		t.Errorf("small subqueries delayed under mu+sigma: %+v", sqs)
	}
	if !sqs[3].Delayed {
		t.Error("huge subquery not delayed under mu+sigma")
	}

	sqs = mk(cards, srcs)
	MarkDelayed(sqs, DelayNone)
	for i, sq := range sqs {
		if sq.Delayed {
			t.Errorf("DelayNone delayed sq %d", i)
		}
	}

	sqs = mk(cards, srcs)
	MarkDelayed(sqs, DelayAll)
	live := 0
	for _, sq := range sqs {
		if !sq.Delayed {
			live++
		}
	}
	if live != 1 || sqs[0].Delayed {
		t.Errorf("DelayAll should keep exactly the most selective live: %+v", sqs)
	}

	sqs = mk(cards, srcs)
	MarkDelayed(sqs, DelayOutliersOnly)
	if !sqs[3].Delayed || sqs[0].Delayed {
		t.Errorf("outliers policy wrong: %+v", sqs)
	}
}

func TestMarkDelayedByEndpointCount(t *testing.T) {
	// Subqueries touching far more endpoints than the others are
	// delayed even with small cardinality.
	sqs := []*Subquery{
		{EstCard: 10, Sources: make([]int, 2), OptionalGroup: -1},
		{EstCard: 10, Sources: make([]int, 2), OptionalGroup: -1},
		{EstCard: 10, Sources: make([]int, 2), OptionalGroup: -1},
		{EstCard: 10, Sources: make([]int, 64), OptionalGroup: -1},
	}
	MarkDelayed(sqs, DelayMuSigma)
	if !sqs[3].Delayed {
		t.Error("wide subquery should be delayed")
	}
	if sqs[0].Delayed {
		t.Error("narrow subquery should not be delayed")
	}
}

func TestMarkDelayedOptionalAlwaysDelayed(t *testing.T) {
	sqs := []*Subquery{
		{EstCard: 10, Sources: make([]int, 2), OptionalGroup: -1},
		{EstCard: 1, Sources: make([]int, 2), Optional: true, OptionalGroup: 0},
	}
	MarkDelayed(sqs, DelayMuSigma)
	if !sqs[1].Delayed {
		t.Error("optional subquery should be delayed")
	}
	if sqs[0].Delayed {
		t.Error("required subquery wrongly delayed")
	}
}

func TestMarkDelayedGuaranteesProgress(t *testing.T) {
	// Identical cardinalities above threshold 0 can never all delay.
	sqs := []*Subquery{
		{EstCard: 100, Sources: make([]int, 2), OptionalGroup: -1},
		{EstCard: 200, Sources: make([]int, 2), OptionalGroup: -1},
	}
	MarkDelayed(sqs, DelayMu)
	live := 0
	for _, sq := range sqs {
		if !sq.Delayed {
			live++
		}
	}
	if live == 0 {
		t.Error("all subqueries delayed; no phase-1 seed")
	}
}

func TestMarkDelayedSingleSubquery(t *testing.T) {
	sqs := []*Subquery{{EstCard: 1e9, Sources: make([]int, 256), OptionalGroup: -1}}
	MarkDelayed(sqs, DelayMuSigma)
	if sqs[0].Delayed {
		t.Error("a single subquery must not be delayed")
	}
}

func TestDelayPolicyString(t *testing.T) {
	for p, want := range map[DelayPolicy]string{
		DelayMu: "mu", DelayMuSigma: "mu+sigma", DelayMu2Sigma: "mu+2sigma",
		DelayOutliersOnly: "outliers", DelayNone: "none", DelayAll: "all",
	} {
		if p.String() != want {
			t.Errorf("String(%d) = %q, want %q", p, p.String(), want)
		}
	}
}
