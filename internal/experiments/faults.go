package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"lusail/internal/benchdata/lubm"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/testfed"
)

// FaultSweep measures fault tolerance on a 4-endpoint LUBM federation:
// a deterministic fault-injection wrapper fails each remote request
// with probability `rate`, and Lusail runs with a sweep of retry
// budgets. All-or-nothing execution (budget 0, no resilience layer)
// loses queries as soon as any one of its hundreds of requests fails;
// with retries the same queries complete and return exactly the
// fault-free answer, at a measurable request/retry overhead.
func FaultSweep(w io.Writer, opts Options) error {
	header(w, "faults", "fault-rate × retry-budget sweep (LUBM, 4 endpoints)")
	fmt.Fprintf(w, "%-6s %-8s %-8s %-10s %-9s %-9s %-8s\n",
		"query", "rate", "retries", "outcome", "requests", "recovery", "time")

	rates := []float64{0.05, 0.20}
	budgets := []int{0, 1, 3}
	queries := []string{"Q1", "Q2", "Q4"}

	// Ground truth: the fault-free run of each query.
	truth := map[string][]string{}
	{
		fed := LUBM(4, opts)
		eng := core.New(fed.Endpoints, core.Config{})
		for _, qn := range queries {
			ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
			res, err := eng.Execute(ctx, lubm.Queries[qn])
			cancel()
			if err != nil {
				return fmt.Errorf("fault-free %s: %w", qn, err)
			}
			truth[qn] = testfed.Canon(res)
		}
	}

	for _, rate := range rates {
		for _, budget := range budgets {
			// Fresh federation + engine per cell: caches and breaker
			// state must not leak across configurations, and the
			// deterministic fault stream restarts from its seed.
			fed := LUBM(4, opts)
			faulty := endpoint.WrapFaulty(fed.Endpoints, endpoint.FaultConfig{
				Seed:      42,
				ErrorRate: rate,
			})
			cfg := core.Config{}
			if budget > 0 {
				rc := endpoint.DefaultResilience()
				rc.MaxRetries = budget
				rc.BaseBackoff = time.Millisecond
				rc.MaxBackoff = 16 * time.Millisecond
				cfg.Resilience = &rc
			}
			eng := core.New(faulty, cfg)
			for _, qn := range queries {
				endpoint.ResetAll(fed.Endpoints)
				ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
				start := time.Now()
				res, m, _, err := eng.ExecuteStreamTraced(ctx, lubm.Queries[qn], nil)
				elapsed := time.Since(start)
				cancel()
				outcome := "ok"
				switch {
				case err != nil:
					outcome = "ERR"
				case !sameRows(testfed.Canon(res), truth[qn]):
					outcome = "MISMATCH"
				}
				fmt.Fprintf(w, "%-6s %-8s %-8d %-10s %-9d %-9s %-8s\n",
					qn, fmt.Sprintf("%.0f%%", rate*100), budget, outcome,
					m.RemoteRequests(),
					fmt.Sprintf("%dr/%db", m.Retries, m.BreakerOpens),
					elapsed.Round(time.Millisecond))
			}
		}
	}
	fmt.Fprintln(w, "\nrecovery = retries issued / requests rejected by an open breaker;")
	fmt.Fprintln(w, "budget 0 runs without the resilience layer (all-or-nothing).")
	return nil
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
