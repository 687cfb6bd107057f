package core

import (
	"context"
	"reflect"
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

	res, m, _, err := l.ExecuteStreamTraced(ctx, testfed.Qa, nil)
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
	want, m1, _, err := l.ExecuteStreamTraced(ctx, testfed.Qa, nil)
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

	res, m2, _, err := l.ExecuteStreamTraced(ctx, testfed.Qa, nil)
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
	_, _, _, err := l.ExecuteStreamTraced(ctx, testfed.Qa, func(vars []sparql.Var, rows []sparql.Binding) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st := l.StatsSnapshot(); st.Observations == 0 {
		t.Error("no calibration observations after a streamed execution")
	}
}
