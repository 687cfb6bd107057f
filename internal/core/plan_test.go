package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
	"lusail/internal/trace"
)

// qaBody is the BGP of the paper's Qa (Fig. 2), for queries that vary
// what surrounds it.
const qaBody = `?S <http://ex/advisor> ?P .
	?S <http://ex/takesCourse> ?C .
	?P <http://ex/teacherOf> ?C .
	?P <http://ex/PhDDegreeFrom> ?U .
	?U <http://ex/address> ?A .`

// planShapes covers every way a group's plan differs from a bare BGP's:
// each is a case where Explain, or ExplainAnalyze's second planning pass,
// used to plan something other than what ran.
var planShapes = []struct{ name, query string }{
	{"order by a non-projected var", `SELECT ?S ?P WHERE { ` + qaBody + ` } ORDER BY ?A`},
	{"global filter", `SELECT ?S ?U WHERE { ` + qaBody + ` FILTER(?S != ?U) }`},
	{"union", `SELECT ?S ?x WHERE {
		?S <http://ex/advisor> ?P .
		{ ?P <http://ex/teacherOf> ?x } UNION { ?P <http://ex/PhDDegreeFrom> ?x }
	}`},
	{"simple optional", `SELECT ?S ?P ?C WHERE {
		?S <http://ex/advisor> ?P .
		OPTIONAL { ?P <http://ex/teacherOf> ?C }
	}`},
	{"structured optional", `SELECT ?P ?x ?A WHERE {
		?S <http://ex/advisor> ?P .
		OPTIONAL {
			{ ?P <http://ex/teacherOf> ?x } UNION { ?P <http://ex/PhDDegreeFrom> ?x }
			OPTIONAL { ?x <http://ex/address> ?A }
		}
	}`},
	{"values", `SELECT ?S ?P ?U WHERE {
		?S <http://ex/advisor> ?P .
		?P <http://ex/PhDDegreeFrom> ?U .
		VALUES ?U { <http://ex/MIT> }
	}`},
}

func requestsSeen(locals []*endpoint.Local) int {
	n := 0
	for _, ep := range locals {
		n += int(ep.Stats().Requests)
	}
	return n
}

// planTexts flattens a plan tree into its subqueries' rendered texts.
func planTexts(p *Plan) []string {
	var out []string
	for _, sq := range p.Subqueries {
		out = append(out, sq.Query().String())
	}
	for _, g := range p.Groups {
		out = append(out, planTexts(g)...)
	}
	sort.Strings(out)
	return out
}

// TestExplainAnalyzeCoversThePlan: EXPLAIN ANALYZE reports the plan that
// ran, all of it, and what it cost — with and without plan knowledge to
// answer a second planning pass for free.
func TestExplainAnalyzeCoversThePlan(t *testing.T) {
	for _, shape := range planShapes {
		for _, cfg := range []string{"knowledge on", "DisableCache"} {
			l, locals := newUniLusail(Config{DisableCache: cfg == "DisableCache"})
			an, err := l.ExplainAnalyze(context.Background(), shape.query)
			if err != nil {
				t.Fatalf("%s: %v", shape.name, err)
			}
			if planned := len(planTexts(an.Plan)); planned != an.Metrics.Subqueries || len(an.Subqueries) != planned {
				t.Errorf("%s (%s): plan renders %d subqueries, analysis covers %d, Metrics.Subqueries = %d",
					shape.name, cfg, planned, len(an.Subqueries), an.Metrics.Subqueries)
			}
			for _, sa := range an.Subqueries {
				if !sa.Executed && sa.Reason == "" {
					t.Errorf("%s (%s): subquery %s has neither an execution record nor a reason:\n%s",
						shape.name, cfg, sa.Subquery, an)
				}
			}
			if seen, reported := requestsSeen(locals), an.Metrics.RemoteRequests(); seen != reported {
				t.Errorf("%s (%s): endpoints saw %d requests, EXPLAIN ANALYZE reports %d",
					shape.name, cfg, seen, reported)
			}
			if strings.Contains(an.String(), "not executed") {
				t.Errorf("%s (%s): unexplained gap in the analysis:\n%s", shape.name, cfg, an)
			}
		}
	}
}

// planMarks flattens a plan tree into each subquery's rendered text with
// the estimate and delay mark it carries.
func planMarks(p *Plan) []string {
	var out []string
	for _, sq := range p.Subqueries {
		out = append(out, fmt.Sprintf("%s est=%g delayed=%v", sq.Query(), sq.EstCard, sq.Delayed))
	}
	for _, g := range p.Groups {
		out = append(out, planMarks(g)...)
	}
	sort.Strings(out)
	return out
}

// TestExplainMatchesExecutedPlan: what Explain renders is what an
// execution sends — same projections, same decomposition, nested groups
// included — and execution leaves the plan's estimates and delay marks
// as it found them.
func TestExplainMatchesExecutedPlan(t *testing.T) {
	for _, shape := range planShapes {
		l, _ := newUniLusail(Config{})
		plan, err := l.Explain(context.Background(), shape.query)
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		an, err := l.ExplainAnalyze(context.Background(), shape.query)
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		var ran []string
		var walk func(sp *trace.Span)
		walk = func(sp *trace.Span) {
			if text, _ := sp.Get("query").(string); text != "" {
				ran = append(ran, text)
			}
			for _, c := range sp.Children() {
				walk(c)
			}
		}
		walk(an.Trace.Root)
		sort.Strings(ran)
		if planned := planTexts(plan); !reflect.DeepEqual(planned, ran) {
			t.Errorf("%s: Explain plans\n  %s\nthe execution ran\n  %s",
				shape.name, strings.Join(planned, "\n  "), strings.Join(ran, "\n  "))
		}
		if planned, executed := planMarks(plan), planMarks(an.Plan); !reflect.DeepEqual(planned, executed) {
			t.Errorf("%s: Explain plans\n  %s\nafter execution the plan reads\n  %s",
				shape.name, strings.Join(planned, "\n  "), strings.Join(executed, "\n  "))
		}
	}
}

// TestPlanSpansAgreeWithMetrics: every probe the planner counts in
// Metrics is on a phase span, for OPTIONAL and nested groups as for the
// top one.
func TestPlanSpansAgreeWithMetrics(t *testing.T) {
	for _, shape := range planShapes {
		l, _ := newUniLusail(Config{})
		_, m, tr, err := l.ExecuteStreamTraced(context.Background(), shape.query, nil)
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		for attr, want := range map[string]int{"asks": m.AskRequests, "checks": m.CheckQueries, "counts": m.CountQueries} {
			if got := tr.Root.SumInt(attr); got != int64(want) {
				t.Errorf("%s: spans carry %s=%d, Metrics count %d\n%s", shape.name, attr, got, want, tr)
			}
		}
	}
}

// selectRecorder notes every query an endpoint is sent that is neither
// an ASK nor a one-row probe (check queries carry LIMIT 1, COUNT probes
// aggregate).
type selectRecorder struct {
	endpoint.Endpoint
	t *testing.T
}

func (s selectRecorder) Query(ctx context.Context, query string) (*sparql.Results, error) {
	q := sparql.MustParse(query)
	if q.Form != sparql.AskForm && !q.Count && q.Limit != 1 {
		s.t.Errorf("planning sent a subquery to %s: %s", s.Name(), query)
	}
	return s.Endpoint.Query(ctx, query)
}

// TestPlanningExecutesNothing: planning a query with nested groups
// sends probes only; no UNION alternative or OPTIONAL group is evaluated
// to build the plan.
func TestPlanningExecutesNothing(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{selectRecorder{ep1, t}, selectRecorder{ep2, t}}, Config{})
	plan, err := l.Explain(context.Background(), planShapes[4].query)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 1 || len(plan.Groups[0].Groups) != 2 {
		t.Fatalf("plan lacks the nested groups:\n%s", plan)
	}
	if ep1.Stats().Requests == 0 {
		t.Error("no probe reached EP1")
	}
}

// TestPhaseDurationsPartitionTheQuery: source selection, analysis and
// execution are disjoint stretches of the query, whatever is nested in
// it — their sum cannot exceed the time the query took.
func TestPhaseDurationsPartitionTheQuery(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	net := endpoint.NetworkProfile{RTT: 2 * time.Millisecond}
	l := New([]endpoint.Endpoint{ep1.WithNetwork(net), ep2.WithNetwork(net)}, Config{DisableCache: true})
	start := time.Now()
	_, m, _, err := l.ExecuteStreamTraced(context.Background(), planShapes[4].query, nil)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if m.SourceSelection <= 0 || m.Analysis <= 0 || m.Execution <= 0 {
		t.Errorf("phases = %s / %s / %s, want each > 0", m.SourceSelection, m.Analysis, m.Execution)
	}
	if m.Total() > wall {
		t.Errorf("phases sum to %s, the query took %s", m.Total(), wall)
	}
}
