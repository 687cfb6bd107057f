package core

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/stats"
	"lusail/internal/testfed"
)

// TestStatisticsWarmPlanningNeedsNoProbes is the tentpole acceptance
// check at engine scope: with harvested summaries, the very first
// execution of a query plans without a single ASK, check, or COUNT
// request — and returns exactly the answers the probe-based plan does.
func TestStatisticsWarmPlanningNeedsNoProbes(t *testing.T) {
	ctx := context.Background()

	// Ground truth from a probe-based engine over its own fixture copy.
	g1, g2 := testfed.Universities()
	plain := New([]endpoint.Endpoint{g1, g2}, Config{})
	want, err := plain.Execute(ctx, testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}

	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{ep1, ep2}, Config{Statistics: &stats.Config{}})
	if err := l.RefreshStats(ctx); err != nil {
		t.Fatalf("refresh stats: %v", err)
	}
	if st := l.StatsSnapshot(); st.Summaries != 2 {
		t.Fatalf("Summaries = %d, want 2", st.Summaries)
	}

	res, m, err := l.ExecuteMetrics(ctx, testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(testfed.Canon(res), testfed.Canon(want)) {
		t.Errorf("summary-planned results differ:\n got %v\nwant %v",
			testfed.Canon(res), testfed.Canon(want))
	}
	if m.AskRequests != 0 || m.CheckQueries != 0 || m.CountQueries != 0 {
		t.Errorf("plan-time requests = ask %d / check %d / count %d, want 0/0/0",
			m.AskRequests, m.CheckQueries, m.CountQueries)
	}
	if m.SummaryHits == 0 {
		t.Error("no plan questions answered from summaries")
	}
}

// TestStatisticsChurnRestoresProbes: churn on one endpoint must fence
// exactly that endpoint's summary — the next query probes it again
// (and still answers correctly), while the quiet endpoint keeps
// answering from its summary.
func TestStatisticsChurnRestoresProbes(t *testing.T) {
	ctx := context.Background()
	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{ep1, ep2}, Config{Statistics: &stats.Config{}})
	if err := l.RefreshStats(ctx); err != nil {
		t.Fatal(err)
	}
	want, m1, err := l.ExecuteMetrics(ctx, testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}
	if got := m1.AskRequests + m1.CheckQueries + m1.CountQueries; got != 0 {
		t.Fatalf("warm plan requests = %d, want 0", got)
	}

	// Churn EP2 with a predicate Qa never touches: the answers must not
	// change, but the coherence fence must still drop EP2's summary.
	ep2.ApplyChurn(rdf.Graph{
		rdf.T(testfed.IRI("Tim"), testfed.IRI("mentor"), testfed.IRI("Kim")),
	}, nil)

	res, m2, err := l.ExecuteMetrics(ctx, testfed.Qa)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(testfed.Canon(res), testfed.Canon(want)) {
		t.Error("post-churn results differ")
	}
	if m2.AskRequests == 0 {
		t.Error("churned endpoint was not re-probed")
	}
	if m2.SummaryHits == 0 {
		t.Error("quiet endpoint's summary stopped answering")
	}
	if st := l.StatsSnapshot(); st.Summaries != 1 {
		t.Errorf("Summaries after churn = %d, want 1 (EP2 dropped)", st.Summaries)
	}
}

// TestStatisticsCalibrationObserves: with calibration on, executions
// feed estimated-vs-actual cardinalities into the correction factors.
func TestStatisticsCalibrationObserves(t *testing.T) {
	ctx := context.Background()
	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{ep1, ep2}, Config{Statistics: &stats.Config{Calibrate: true}})
	if err := l.RefreshStats(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Execute(ctx, testfed.Qa); err != nil {
		t.Fatal(err)
	}
	// On this tiny fixture the summary estimates can be exact, in which
	// case no factor moves — but the observations must flow regardless.
	// Factor-update mechanics are covered by the stats package tests.
	if st := l.StatsSnapshot(); st.Observations == 0 {
		t.Error("no calibration observations after an execution")
	}
}

// TestStatisticsCalibrationObservesStreaming: the pipelined executor
// must feed the calibrator too — the server's default JSON path
// streams, and a silent calibration gap there would leave production
// estimates untuned.
func TestStatisticsCalibrationObservesStreaming(t *testing.T) {
	ctx := context.Background()
	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{ep1, ep2}, Config{Statistics: &stats.Config{Calibrate: true}})
	if err := l.RefreshStats(ctx); err != nil {
		t.Fatal(err)
	}
	_, _, err := l.ExecuteStream(ctx, testfed.Qa, func(vars []sparql.Var, rows []sparql.Binding) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st := l.StatsSnapshot(); st.Observations == 0 {
		t.Error("no calibration observations after a streamed execution")
	}
}

// TestReplanPromotesDelayed drives the mid-query replan hook at the
// executor level: a phase-1 overshoot patches the estimate, the delay
// partition is recomputed, and the formerly-delayed subquery runs
// unbound instead of bound — whether or not another relation is
// streaming through the plan as the tail meanwhile.
func TestReplanPromotesDelayed(t *testing.T) {
	for _, withTail := range []bool{false, true} {
		ex := NewExecutor(uniEndpoints())
		ex.ReplanOvershoot = 2
		ex.DelayPolicy = DelayAll
		var observedEst []float64
		ex.Observe = func(sq *Subquery, actual int) {
			observedEst = append(observedEst, sq.EstCard)
		}

		sqA := &Subquery{
			Patterns: sparql.MustParse(`SELECT * WHERE { ?s <http://ex/advisor> ?p }`).Where.Patterns,
			Sources:  []int{0, 1}, ProjVars: []sparql.Var{"s", "p"},
			OptionalGroup: -1, EstCard: 1,
		}
		sqB := &Subquery{
			ID:       1,
			Patterns: sparql.MustParse(`SELECT * WHERE { ?p <http://ex/PhDDegreeFrom> ?u }`).Where.Patterns,
			Sources:  []int{0, 1}, ProjVars: []sparql.Var{"p", "u"},
			OptionalGroup: -1, EstCard: 2, Delayed: true,
		}
		sqs, wantRows, wantObserved := []*Subquery{sqA, sqB}, 4, []float64{1, 2}
		if withTail {
			// Shares no variable with the delayed subquery, so it is the
			// tail; its 3 rows cross the 4 joined ones. Its estimate is
			// exact, and it is observed whenever its stream has drained.
			sqs = append(sqs, &Subquery{
				ID:       2,
				Patterns: sparql.MustParse(`SELECT * WHERE { ?x <http://ex/takesCourse> ?c }`).Where.Patterns,
				Sources:  []int{0, 1}, ProjVars: []sparql.Var{"x", "c"},
				OptionalGroup: -1, EstCard: 3,
			})
			wantRows, wantObserved = 12, []float64{1, 2, 3}
		}
		rel, stats, err := runPlan(t, context.Background(), ex, &Plan{Subqueries: sqs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// advisor yields 4 rows against an estimate of 1: overshoot. Under
		// DelayAll the recomputed partition keeps only the cheapest subquery
		// eager — now sqB (card 2 vs the corrected 4) — so it is promoted.
		if stats.Replans != 1 {
			t.Fatalf("tail=%v: Replans = %d, want 1", withTail, stats.Replans)
		}
		if stats.BoundBlocks != 0 {
			t.Errorf("tail=%v: BoundBlocks = %d, want 0 (promoted subquery must run unbound)", withTail, stats.BoundBlocks)
		}
		if sqA.EstCard != 4 {
			t.Errorf("tail=%v: sqA.EstCard = %v, want patched to 4", withTail, sqA.EstCard)
		}
		// The observation must see the estimate the plan was made with, not
		// the patched value; the promoted subquery ran unbound, so its whole
		// cardinality is an observation too.
		sort.Float64s(observedEst)
		if !reflect.DeepEqual(observedEst, wantObserved) {
			t.Errorf("tail=%v: observed estimates = %v, want %v", withTail, observedEst, wantObserved)
		}
		if len(rel.Rows) != wantRows {
			t.Errorf("tail=%v: joined rows = %d, want %d", withTail, len(rel.Rows), wantRows)
		}
	}
}

// TestReplanDisabledKeepsDelayed: without an overshoot factor the
// executor never replans, and the delayed subquery runs bound.
func TestReplanDisabledKeepsDelayed(t *testing.T) {
	eps := uniEndpoints()
	ex := NewExecutor(eps)
	sqA := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?s <http://ex/advisor> ?p }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"s", "p"},
		OptionalGroup: -1, EstCard: 1,
	}
	sqB := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?p <http://ex/PhDDegreeFrom> ?u }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"p", "u"},
		OptionalGroup: -1, EstCard: 1, Delayed: true,
	}
	rel, stats, err := runPlan(t, context.Background(), ex, &Plan{Subqueries: []*Subquery{sqA, sqB}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replans != 0 {
		t.Fatalf("Replans = %d, want 0", stats.Replans)
	}
	if stats.BoundBlocks == 0 {
		t.Error("delayed subquery did not run bound")
	}
	if len(rel.Rows) != 4 {
		t.Errorf("joined rows = %d, want 4", len(rel.Rows))
	}
}

// TestReplanThroughSink: the replan hook is armed for sink-delivered
// queries too. The COUNT statistics go stale (the address relation
// grows after its cardinality was cached), so the eager address
// subquery overshoots its estimate mid-query, the delay partition is
// recomputed, and the PhDDegreeFrom subquery runs unbound instead of
// bound — with the answer still the union graph's.
func TestReplanThroughSink(t *testing.T) {
	ctx := context.Background()
	q := `SELECT ?P ?A WHERE { ?P <http://ex/PhDDegreeFrom> ?U . ?U <http://ex/address> ?A }`
	run := func(overshoot float64) (Metrics, []*endpoint.Local, *collectStream) {
		l, locals := newUniLusail(Config{DelayPolicy: DelayAll, ReplanOvershoot: overshoot})
		if _, err := l.Execute(ctx, q); err != nil { // caches the cardinalities
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			locals[0].Store().Add(rdf.T(testfed.IRI("MIT"), testfed.IRI("address"), rdf.Integer(int64(i))))
		}
		c := &collectStream{t: t}
		_, m, err := l.ExecuteStream(ctx, q, c.sink)
		if err != nil {
			t.Fatal(err)
		}
		return m, locals, c
	}

	m, locals, c := run(2)
	if m.Replans < 1 {
		t.Errorf("Replans = %d, want >= 1", m.Replans)
	}
	if m.BoundBlocks != 0 {
		t.Errorf("BoundBlocks = %d, want 0 (the promoted subquery runs unbound)", m.BoundBlocks)
	}
	if cg, cw := testfed.Canon(c.results()), testfed.Canon(oracle(t, locals, q)); !reflect.DeepEqual(cg, cw) {
		t.Errorf("replanned rows differ from the oracle.\n got: %v\nwant: %v", cg, cw)
	}

	if m, _, _ := run(0); m.Replans != 0 || m.BoundBlocks == 0 {
		t.Errorf("disabled: Replans = %d, BoundBlocks = %d, want 0 and > 0", m.Replans, m.BoundBlocks)
	}
}
