package core

import (
	"context"
	"fmt"
	"testing"

	"lusail/internal/benchdata/lubm"
	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/sparql"
	"lusail/internal/stats"
	"lusail/internal/testfed"
)

// planQuestions enumerates the plan-time questions a query can raise at
// one endpoint: an ASK per pattern, a check per ordered pair of
// patterns sharing a variable (a superset of what LADE formulates), and
// an unfiltered COUNT per pattern — each with the summary tier the
// planner attaches to it.
func planQuestions(ep endpoint.Endpoint, patterns []sparql.TriplePattern) []federation.Question {
	typeOf := TypeConstraints(patterns)
	var qs []federation.Question
	for i, tp := range patterns {
		qs = append(qs,
			federation.Question{EP: ep, Kind: federation.KindAsk, Text: federation.AskQueryFor(tp),
				Summary: func(sum *stats.Summary) (float64, bool) {
					relevant, ok := sum.Relevant(tp)
					return federation.Truth(relevant), ok
				}},
			federation.Question{EP: ep, Kind: federation.KindCount, Text: CountQuery(tp, nil),
				Summary: func(sum *stats.Summary) (float64, bool) { return sum.PatternCard(tp) }})
		for j, to := range patterns {
			if i == j {
				continue
			}
			for _, v := range tp.Vars() {
				if !to.HasVar(v) {
					continue
				}
				qs = append(qs, federation.Question{EP: ep, Kind: federation.KindCheck,
					Text: CheckQuery(v, tp, to, typeOf[v]),
					Summary: func(sum *stats.Summary) (float64, bool) {
						nonEmpty, ok := sum.CheckNonEmpty(v, tp, to, typeOf[v])
						return federation.Truth(nonEmpty), ok
					}})
			}
		}
	}
	return qs
}

// TestPlanKnowledgeAgreesWithLiveProbes: for every plan question of the
// benchmark queries at every endpoint, whatever tier answers — a stored
// fact, the summary, or a probe — gives the answer a live probe gives
// (ASK and check verdicts exactly; a summary cardinality is an estimate
// and only has to be one), under facts cold or warm and the summary
// absent, present, or fenced by a data-version move. An answer from a
// fact or the summary sends nothing to the endpoint.
func TestPlanKnowledgeAgreesWithLiveProbes(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	fixtures := []struct {
		name    string
		eps     []endpoint.Endpoint
		queries map[string]string
	}{
		{"testfed", []endpoint.Endpoint{ep1, ep2}, map[string]string{"Qa": testfed.Qa}},
		{"lubm4", lubmFederation(-1, nil), lubm.Queries},
	}
	ctx := context.Background()
	for _, fx := range fixtures {
		for _, summary := range []string{"absent", "present", "fenced"} {
			t.Run(fx.name+"/summary-"+summary, func(t *testing.T) {
				know := federation.NewKnowledge(fx.eps)
				know.Refresh(ctx)
				if summary == "fenced" {
					// The data moves on after the last probe: every
					// stamp the harvest writes is ahead of the tracked
					// version.
					for _, ep := range fx.eps {
						ep.(*endpoint.Local).BumpDataVersion()
					}
				}
				if summary != "absent" {
					if err := stats.New(fx.eps, stats.Config{}, know).Refresh(ctx); err != nil {
						t.Fatal(err)
					}
				}
				fromSummary := 0
				for qname, text := range fx.queries {
					patterns := sparql.MustParse(text).Where.Patterns
					for _, ep := range fx.eps {
						for _, q := range planQuestions(ep, patterns) {
							id := fmt.Sprintf("%s %s@%s %q", qname, q.Kind, ep.Name(), q.Text)
							// The reference: a probe that consults nothing.
							var none *federation.Knowledge
							ref, err := none.Probe(ctx, nil, "reference", []federation.Question{q})
							if err != nil {
								t.Fatalf("%s: %v", id, err)
							}
							want := ref[0].Value

							// Facts cold: the summary or nothing.
							endpoint.ResetAll(fx.eps)
							got, tier := know.Lookup(&q)
							switch tier {
							case federation.TierFact:
								// An earlier query of the fixture asked the same.
							case federation.TierSummary:
								fromSummary++
								if summary != "present" {
									t.Errorf("%s: answered from a summary that is %s", id, summary)
								}
								if q.Kind != federation.KindCount && got != want {
									t.Errorf("%s: summary says %v, the endpoint says %v", id, got, want)
								}
								if q.Kind == federation.KindCount && got < 0 {
									t.Errorf("%s: summary cardinality %v", id, got)
								}
							case federation.TierNone:
								ans, err := know.Probe(ctx, nil, "test", []federation.Question{q})
								if err != nil || !ans[0].OK || ans[0].Value != want {
									t.Fatalf("%s: probe = %+v, %v; want %v", id, ans, err, want)
								}
							}
							if n := endpoint.TotalStats(fx.eps).Requests; tier != federation.TierNone && n != 0 {
								t.Errorf("%s: a local answer sent %d requests", id, n)
							}
							if tier == federation.TierSummary {
								continue // a summary answer stores no fact
							}
							// Facts warm: the stored answer, and no request.
							endpoint.ResetAll(fx.eps)
							got, tier = know.Lookup(&q)
							if tier != federation.TierFact || got != want {
								t.Errorf("%s: warm lookup = %v from tier %d, want %v from a fact", id, got, tier, want)
							}
							if n := endpoint.TotalStats(fx.eps).Requests; n != 0 {
								t.Errorf("%s: a warm lookup sent %d requests", id, n)
							}
						}
					}
				}
				if summary == "present" && fromSummary == 0 {
					t.Error("no question was answered from the summaries — the property is vacuous")
				}
			})
		}
	}
}
