package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/trace"
)

// SubqueryAnalysis pairs one planned subquery with the actuals its
// execution produced, so estimate-vs-actual error is visible per
// subquery.
type SubqueryAnalysis struct {
	// Subquery is the planned subquery; its EstCard is the estimate the
	// delay decision was made with.
	Subquery *Subquery
	// ActualRows is the materialized relation's cardinality.
	ActualRows int64
	// Latency is the subquery's wall-clock evaluation time (for
	// phase-1 subqueries, the slowest of its per-endpoint requests).
	Latency time.Duration
	// Requests is the number of remote requests the subquery issued.
	Requests int64
	// Decision describes how the executor evaluated the subquery:
	// "concurrent" for phase-1, or the bound-execution outcome for
	// delayed ones (bound variable, candidate count, block count,
	// unbound fallback, empty candidates).
	Decision string
	// Executed is false when the subquery left no execution record;
	// Reason then states why it never ran to completion (a sibling
	// relation emptied the join first, LIMIT stopped the stream, the
	// query budget expired).
	Executed bool
	Reason   string
}

// QError is the estimate's multiplicative error factor,
// max(est,actual)/min(est,actual), with +1 smoothing so empty
// relations stay finite. 1.0 is a perfect estimate.
func (a SubqueryAnalysis) QError() float64 {
	est, act := a.Subquery.EstCard+1, float64(a.ActualRows)+1
	if est > act {
		return est / act
	}
	return act / est
}

// Analysis is an executed plan: the plan tree one real execution
// planned and ran, annotated with the actual cardinalities, latencies,
// and delay-decision outcomes, plus that execution's Metrics and full
// span tree.
type Analysis struct {
	Plan *Plan
	// Subqueries covers every subquery of the plan tree — the top
	// group's, then each nested group's, in rendering order — so its
	// length is Metrics.Subqueries.
	Subqueries []SubqueryAnalysis
	Metrics    Metrics
	Trace      *trace.Trace
	// Rows is the query's final result cardinality.
	Rows int
	// EndpointStats snapshots per-endpoint traffic and latency at
	// analysis time.
	EndpointStats []endpoint.EndpointStat
}

// ExplainAnalyze executes the query while recording a trace, then
// returns the plan that execution built and ran — planned once, nested
// UNION and OPTIONAL groups included — with each subquery's own
// execution record next to its estimate: actual cardinality, latency,
// requests, and the delay-decision outcome. The query runs for real: its
// full cost (probes, phase-1, bound phase-2, joins) is paid exactly once,
// like Execute. Estimates and delay marks are the ones the plan was made
// with: execution does not rewrite them.
func (l *Lusail) ExplainAnalyze(ctx context.Context, query string) (*Analysis, error) {
	res, r, tr, err := l.execute(ctx, query, nil)
	if err != nil {
		return nil, err
	}
	an := &Analysis{
		Plan:          r.root,
		Metrics:       r.m,
		Trace:         tr,
		Rows:          res.Len(),
		EndpointStats: l.EndpointStats(),
	}
	an.annotate(r, r.root)
	return an, nil
}

// annotate appends p's subqueries with their execution records, then
// the nested groups', in the plan's rendering order.
func (a *Analysis) annotate(r *run, p *Plan) {
	for _, sq := range p.Subqueries {
		sa := SubqueryAnalysis{Subquery: sq, Decision: delayMode(sq)}
		if sp := sq.record; sp != nil {
			sa.Executed = true
			sa.ActualRows = sp.Int("rows")
			sa.Requests = sp.Int("requests")
			sa.Latency = sp.Duration()
			if d, _ := sp.Get("decision").(string); d != "" {
				sa.Decision = d
			}
			if shared, _ := sp.Get("shared").(bool); shared {
				sa.Decision += " (shared)"
			}
		} else {
			sa.Reason = r.whyUnrecorded(p, a.Rows)
		}
		a.Subqueries = append(a.Subqueries, sa)
	}
	for _, c := range p.Groups {
		a.annotate(r, c)
	}
}

// whyUnrecorded states why a subquery of the executed group p left no
// execution record: the executor stops waiting for (and launching)
// subqueries once a required relation lands empty, drops the delayed
// ones when a best-effort budget expires, and does not account a
// streaming tail that LIMIT cut short. Empty when none of these holds.
func (r *run) whyUnrecorded(p *Plan, rows int) string {
	for _, rel := range p.extra {
		if !rel.Optional && len(rel.Rows) == 0 {
			return "a nested UNION or VALUES relation was empty, so the join was already empty"
		}
	}
	for _, sq := range p.Subqueries {
		if !sq.Optional && sq.record != nil && sq.record.Int("rows") == 0 {
			return fmt.Sprintf("subquery %d came back empty, so the join was already empty", sq.ID)
		}
	}
	if p == r.root && r.q.Limit >= 0 && rows >= r.q.Limit {
		return "LIMIT was satisfied while it streamed"
	}
	if r.dg.BudgetExpired() {
		return "the query budget expired"
	}
	return ""
}

// String renders the analysis for humans: the plan with actuals
// annotated per subquery, phase timings, and per-endpoint latency
// statistics when available.
func (a *Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE  rows=%d  total=%s  requests=%d\n",
		a.Rows, a.Metrics.Total().Round(time.Microsecond), a.Metrics.RemoteRequests())
	fmt.Fprintf(&b, "phases: source-selection=%s analysis=%s execution=%s\n",
		a.Metrics.SourceSelection.Round(time.Microsecond),
		a.Metrics.Analysis.Round(time.Microsecond),
		a.Metrics.Execution.Round(time.Microsecond))
	if a.Metrics.Retries > 0 || a.Metrics.BreakerOpens > 0 {
		fmt.Fprintf(&b, "faults: retries=%d breaker-opens=%d\n", a.Metrics.Retries, a.Metrics.BreakerOpens)
	}
	if a.Metrics.ChunkSplits > 0 {
		fmt.Fprintf(&b, "values-chunk splits: %d\n", a.Metrics.ChunkSplits)
	}
	if c := a.Metrics.Completeness; c != nil && !c.Complete {
		fmt.Fprintf(&b, "completeness: %s\n", c)
	}
	if a.Metrics.SummaryHits > 0 {
		fmt.Fprintf(&b, "plan questions answered from statistics summaries: %d\n", a.Metrics.SummaryHits)
	}

	bySubquery := make(map[*Subquery]*SubqueryAnalysis, len(a.Subqueries))
	for i := range a.Subqueries {
		bySubquery[a.Subqueries[i].Subquery] = &a.Subqueries[i]
	}
	a.Plan.write(&b, "", func(sq *Subquery) string {
		sa := bySubquery[sq]
		head := planned(sq, sa.Decision)
		switch {
		case sa.Executed:
			return fmt.Sprintf("%s → actual %d (q-err %.1f×), %s, %d requests",
				head, sa.ActualRows, sa.QError(), sa.Latency.Round(time.Microsecond), sa.Requests)
		case sa.Reason != "":
			return head + ", not run: " + sa.Reason
		}
		return head + ", not executed"
	})

	// Join steps, from the trace.
	if joins := a.Trace.Root.FindAll("hash-join"); len(joins) > 0 {
		b.WriteString("joins:\n")
		for _, js := range joins {
			fmt.Fprintf(&b, "    hash-join %d ⋈ %d → %d rows (%d partitions, %s)\n",
				js.Int("left_rows"), js.Int("right_rows"), js.Int("out_rows"),
				js.Int("partitions"), js.Duration().Round(time.Microsecond))
		}
	}
	for _, ls := range a.Trace.Root.FindAll("left-join") {
		fmt.Fprintf(&b, "    left-join group %d: %d rows → %d rows (%s)\n",
			ls.Int("group"), ls.Int("left_rows"), ls.Int("out_rows"),
			ls.Duration().Round(time.Microsecond))
	}

	// Per-endpoint latency, when instrumentation is on.
	var instrumented []endpoint.EndpointStat
	for _, es := range a.EndpointStats {
		if es.Stats.Latency.Count() > 0 {
			instrumented = append(instrumented, es)
		}
	}
	if len(instrumented) > 0 {
		b.WriteString("endpoints (cumulative):\n")
		for _, es := range instrumented {
			lat := es.Stats.Latency
			fmt.Fprintf(&b, "    %-12s requests=%d errors=%d p50<=%s p95<=%s p99<=%s mean=%s\n",
				es.Name, lat.Count(), es.Stats.Errors,
				trace.Seconds(lat.Quantile(0.50)), trace.Seconds(lat.Quantile(0.95)),
				trace.Seconds(lat.Quantile(0.99)), trace.Seconds(lat.Mean()).Round(time.Microsecond))
		}
	}
	return b.String()
}
