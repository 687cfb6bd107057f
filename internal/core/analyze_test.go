package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/testfed"
)

func TestExplainAnalyzeQa(t *testing.T) {
	l, _ := newUniLusail(Config{})
	an, err := l.ExplainAnalyze(context.Background(), testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}
	if an.Rows != 2 {
		t.Errorf("rows = %d, want 2", an.Rows)
	}
	if len(an.Subqueries) != 4 {
		t.Fatalf("subqueries = %d, want 4", len(an.Subqueries))
	}
	for _, sa := range an.Subqueries {
		if !sa.Executed {
			t.Errorf("subquery %d has no execution record", sa.Subquery.ID)
			continue
		}
		if sa.Subquery.EstCard <= 0 {
			t.Errorf("subquery %d missing estimate", sa.Subquery.ID)
		}
		if sa.ActualRows <= 0 {
			t.Errorf("subquery %d actual rows = %d, want > 0", sa.Subquery.ID, sa.ActualRows)
		}
		if sa.Latency <= 0 {
			t.Errorf("subquery %d latency not recorded", sa.Subquery.ID)
		}
		if sa.Requests <= 0 {
			t.Errorf("subquery %d requests = %d, want > 0", sa.Subquery.ID, sa.Requests)
		}
		if sa.QError() < 1 {
			t.Errorf("q-error %f < 1", sa.QError())
		}
	}
	text := an.String()
	for _, want := range []string{
		"EXPLAIN ANALYZE", "→ actual", "q-err", "requests",
		"phases:", "subquery", "endpoints (cumulative):", "p95<=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("analysis text missing %q:\n%s", want, text)
		}
	}
	if an.Trace == nil || an.Trace.Root.Duration() <= 0 {
		t.Error("analysis carries no trace")
	}
}

func TestExplainAnalyzeDelayedDecision(t *testing.T) {
	// DelayAll forces bound phase-2 execution, so the delayed
	// subqueries' decisions must describe the bound run, not just
	// "delayed".
	l, _ := newUniLusail(Config{DelayPolicy: DelayAll})
	l.executor.bindBlockSize = 1
	an, err := l.ExplainAnalyze(context.Background(), testfed.QaChain)
	if err != nil {
		t.Fatal(err)
	}
	sawBound := false
	for _, sa := range an.Subqueries {
		if sa.Subquery.Delayed && sa.Executed && strings.Contains(sa.Decision, "bound ?") {
			sawBound = true
			if !strings.Contains(sa.Decision, "candidates") || !strings.Contains(sa.Decision, "blocks") {
				t.Errorf("bound decision lacks candidate/block counts: %q", sa.Decision)
			}
		}
	}
	if !sawBound {
		t.Errorf("no delayed subquery recorded a bound decision:\n%s", an.String())
	}
}

func TestExplainAnalyzeJoinSteps(t *testing.T) {
	l, _ := newUniLusail(Config{})
	an, err := l.ExplainAnalyze(context.Background(), testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(an.String(), "hash-join") {
		t.Errorf("analysis missing join steps:\n%s", an.String())
	}
}

func TestExplainAnalyzeBadQuery(t *testing.T) {
	l, _ := newUniLusail(Config{})
	if _, err := l.ExplainAnalyze(context.Background(), "junk"); err == nil {
		t.Error("bad query accepted")
	}
}

// notRun runs ExplainAnalyze and asserts that the rendered analysis
// gives want as the reason a subquery did not run.
func notRun(t *testing.T, l *Lusail, query, want string) {
	t.Helper()
	an, err := l.ExplainAnalyze(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if text := an.String(); !strings.Contains(text, "not run: "+want) {
		t.Errorf("analysis lacks %q:\n%s", "not run: "+want, text)
	}
}

// The address subquery runs in phase 1 and lands empty, so the
// delayed subquery that would be bound by it never runs.
func TestExplainAnalyzeNotRunAfterEmptyRelation(t *testing.T) {
	l, _ := newUniLusail(Config{DelayPolicy: DelayAll})
	notRun(t, l, `SELECT ?S ?P ?U ?A WHERE {
	?S <http://ex/advisor> ?P .
	?S <http://ex/takesCourse> ?C .
	?P <http://ex/PhDDegreeFrom> ?U .
	?U <http://ex/address> ?A .
	FILTER(?A = "nowhere")
}`, "subquery 1 came back empty, so the join was already empty")
}

// EP1's rows satisfy LIMIT 1 while the slowed EP2 still owes its part
// of the only subquery, the streaming tail, which never lands.
func TestExplainAnalyzeNotRunAfterLimit(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{
		ep1,
		endpoint.NewFaulty(ep2, endpoint.FaultConfig{SlowBy: 100 * time.Millisecond}),
	}, Config{})
	notRun(t, l, `SELECT ?S ?P WHERE { ?S <http://ex/advisor> ?P } LIMIT 1`,
		"LIMIT was satisfied while it streamed")
}

// EP2 hangs on the phase-1 address subquery until the best-effort
// budget expires, so the delayed subquery is dropped unrun.
func TestExplainAnalyzeNotRunAfterBudget(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{
		ep1,
		endpoint.NewFaulty(ep2, endpoint.FaultConfig{HangOn: "SELECT ?A ?U"}),
	}, Config{
		DelayPolicy: DelayAll,
		Degradation: endpoint.DegradeBestEffort,
		QueryBudget: 50 * time.Millisecond,
	})
	notRun(t, l, testfed.QaChain, "the query budget expired")
}
