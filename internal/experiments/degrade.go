package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"lusail/internal/benchdata/lubm"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

// DegradeSweep measures graceful degradation on a 4-endpoint LUBM
// federation under two availability scenarios.
//
// Scenario A (hard outage): univ1 is taken hard-down and every query
// runs under each degradation policy. The oracle is a fresh engine
// over the three surviving endpoints: a degraded run is "ok" exactly
// when it returns the surviving-partition answer and names the dead
// endpoint in its completeness report. The fail policy is expected to
// error — that is the row the other policies are measured against.
// A second pass rotates the victim across all four endpoints under
// best-effort.
//
// Scenario B (flapping endpoint): univ1 flaps (down for N requests,
// up for M) at increasing duty cycles under best-effort with one
// retry, showing completeness as a function of fault rate.
func DegradeSweep(w io.Writer, opts Options) error {
	header(w, "degrade", "graceful degradation under endpoint outages (LUBM, 4 endpoints)")
	queries := []string{"Q1", "Q2", "Q4"}

	// Ground truth over the full federation (used by the flap scenario,
	// where the endpoint recovers between requests).
	fullTruth := map[string][]string{}
	{
		fed := LUBM(4, opts)
		eng := core.New(fed.Endpoints, core.Config{})
		for _, qn := range queries {
			res, _, err := runQuery(eng, lubm.Queries[qn], opts.Timeout)
			if err != nil {
				return fmt.Errorf("fault-free %s: %w", qn, err)
			}
			fullTruth[qn] = testfed.Canon(res)
		}
	}

	// survivingTruth computes the oracle answers with endpoint
	// `victim` removed from the federation entirely.
	survivingTruth := func(victim int) (map[string][]string, error) {
		fed := LUBM(4, opts)
		var eps []endpoint.Endpoint
		for i, ep := range fed.Endpoints {
			if i != victim {
				eps = append(eps, ep)
			}
		}
		eng := core.New(eps, core.Config{})
		truth := map[string][]string{}
		for _, qn := range queries {
			res, _, err := runQuery(eng, lubm.Queries[qn], opts.Timeout)
			if err != nil {
				return nil, fmt.Errorf("surviving-partition %s: %w", qn, err)
			}
			truth[qn] = testfed.Canon(res)
		}
		return truth, nil
	}

	resilience := func() *endpoint.ResilienceConfig {
		rc := endpoint.DefaultResilience()
		rc.MaxRetries = 1
		rc.BaseBackoff = time.Millisecond
		rc.MaxBackoff = 8 * time.Millisecond
		return &rc
	}

	fmt.Fprintln(w, "scenario A: endpoint univ1 hard-down, policy sweep")
	fmt.Fprintf(w, "%-6s %-14s %-10s %-7s %-8s %s\n",
		"query", "policy", "outcome", "rows", "dropped", "completeness")
	oneDown, err := survivingTruth(1)
	if err != nil {
		return err
	}
	for _, policy := range []endpoint.DegradePolicy{
		endpoint.DegradeFail, endpoint.DegradeSkipEndpoint, endpoint.DegradeBestEffort,
	} {
		fed := LUBM(4, opts)
		eps := append([]endpoint.Endpoint(nil), fed.Endpoints...)
		eps[1] = endpoint.NewFaulty(eps[1], endpoint.FaultConfig{Down: true})
		eng := core.New(eps, core.Config{Resilience: resilience(), Degradation: policy})
		for _, qn := range queries {
			res, m, err := runQuery(eng, lubm.Queries[qn], opts.Timeout)
			outcome := "ok"
			rows := 0
			switch {
			case err != nil:
				outcome = "ERR"
			case !sameRows(testfed.Canon(res), oneDown[qn]):
				outcome = "MISMATCH"
				rows = res.Len()
			default:
				rows = res.Len()
			}
			completeness := "-"
			if m.Completeness != nil {
				completeness = m.Completeness.String()
			}
			fmt.Fprintf(w, "%-6s %-14s %-10s %-7d %-8d %s\n",
				qn, policy, outcome, rows, m.DroppedEndpoints, completeness)
		}
	}

	fmt.Fprintln(w, "\nscenario A': victim rotation under best-effort")
	fmt.Fprintf(w, "%-8s %-6s %-10s %-7s %-8s\n", "victim", "query", "outcome", "rows", "dropped")
	for victim := 0; victim < 4; victim++ {
		truth, err := survivingTruth(victim)
		if err != nil {
			return err
		}
		fed := LUBM(4, opts)
		eps := append([]endpoint.Endpoint(nil), fed.Endpoints...)
		eps[victim] = endpoint.NewFaulty(eps[victim], endpoint.FaultConfig{Down: true})
		eng := core.New(eps, core.Config{
			Resilience:  resilience(),
			Degradation: endpoint.DegradeBestEffort,
		})
		for _, qn := range queries {
			res, m, err := runQuery(eng, lubm.Queries[qn], opts.Timeout)
			outcome := "ok"
			rows := 0
			switch {
			case err != nil:
				outcome = "ERR"
			case !sameRows(testfed.Canon(res), truth[qn]):
				outcome = "MISMATCH"
				rows = res.Len()
			default:
				rows = res.Len()
			}
			fmt.Fprintf(w, "%-8s %-6s %-10s %-7d %-8d\n",
				fed.Names[victim], qn, outcome, rows, m.DroppedEndpoints)
		}
	}

	fmt.Fprintln(w, "\nscenario B: univ1 flapping, best-effort, completeness vs fault rate")
	fmt.Fprintf(w, "%-10s %-6s %-10s %-10s %-8s\n", "duty", "query", "outcome", "complete", "dropped")
	duties := []struct{ down, up int }{{2, 8}, {5, 5}, {8, 2}}
	for _, duty := range duties {
		fed := LUBM(4, opts)
		eps := append([]endpoint.Endpoint(nil), fed.Endpoints...)
		eps[1] = endpoint.NewFaulty(eps[1], endpoint.FaultConfig{
			FlapDownFor: duty.down,
			FlapUpFor:   duty.up,
		})
		eng := core.New(eps, core.Config{
			Resilience:  resilience(),
			Degradation: endpoint.DegradeBestEffort,
		})
		for _, qn := range queries {
			res, m, err := runQuery(eng, lubm.Queries[qn], opts.Timeout)
			outcome := "ok"
			complete := false
			switch {
			case err != nil:
				outcome = "ERR"
			case sameRows(testfed.Canon(res), fullTruth[qn]):
				complete = m.Completeness == nil || m.Completeness.Complete
			default:
				outcome = "partial"
			}
			fmt.Fprintf(w, "%-10s %-6s %-10s %-10t %-8d\n",
				fmt.Sprintf("%d/%d", duty.down, duty.down+duty.up), qn, outcome, complete, m.DroppedEndpoints)
		}
	}

	fmt.Fprintln(w, "\nfail errors on the first dead endpoint; skip-endpoint and best-effort")
	fmt.Fprintln(w, "return exactly the surviving-partition answer, annotated with the drop.")
	return nil
}

// runQuery executes one query with the experiment timeout.
func runQuery(eng *core.Lusail, query string, timeout time.Duration) (*sparql.Results, core.Metrics, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	res, m, _, err := eng.ExecuteStreamTraced(ctx, query, nil)
	return res, m, err
}
