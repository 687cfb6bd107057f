package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"lusail/internal/benchdata/lubm"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/stats"
	"lusail/internal/testfed"
)

// FaultSweep measures fault tolerance on a 4-endpoint LUBM federation:
// a deterministic fault-injection wrapper fails each remote request
// with probability `rate`, and Lusail runs with a sweep of retry
// budgets. All-or-nothing execution (budget 0, no resilience layer)
// loses queries as soon as any one of its hundreds of requests fails;
// with retries the same queries complete and return exactly the
// fault-free answer, at a measurable request/retry overhead. A second
// section measures hedging against a straggling endpoint (hedgeSweep).
func FaultSweep(w io.Writer, opts Options) error {
	header(w, "faults", "fault-rate × retry-budget sweep, then hedging against a straggler (LUBM, 4 endpoints)")
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
	return hedgeSweep(w, opts)
}

// The hedging section's straggler: one endpoint delays this seeded
// fraction of its requests by this much, over a link of this RTT.
const (
	hedgeQueries   = 400
	hedgeRTT       = 5 * time.Millisecond
	stragglerRate  = 0.05
	stragglerDelay = 200 * time.Millisecond
)

// hedgeSweep measures what hedging buys where the served configuration
// would use it: LUBM-4 behind the default resilience layer with
// harvested statistics, one endpoint straggling. The same query
// sequence runs with hedging off and on, then again without the
// straggler as the control, where hedging should cost next to nothing.
// The verdict asks hedging to halve the straggler's p95. The four
// passes are independent federations and wait on simulated links, not
// CPU, so they run side by side.
func hedgeSweep(w io.Writer, opts Options) error {
	fmt.Fprintf(w, "\nhedging: LUBM-4 Q1-Q4, %s RTT, %d queries per pass; the straggler delays %.0f%% of one endpoint's requests by %s\n",
		hedgeRTT, hedgeQueries, stragglerRate*100, stragglerDelay)
	type pass struct {
		straggler, hedge bool
		lat              []time.Duration
		hedges           int
		err              error
	}
	passes := []*pass{{straggler: true}, {straggler: true, hedge: true}, {}, {hedge: true}}
	var wg sync.WaitGroup
	for _, p := range passes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.lat, p.hedges, p.err = hedgePass(opts, p.straggler, p.hedge)
		}()
	}
	wg.Wait()
	fmt.Fprintf(w, "%-10s %-6s %9s %9s %9s %9s\n", "straggler", "hedge", "p50", "p95", "p99", "hedges/q")
	var p95 [2]time.Duration // the straggler passes, hedging off and on
	for i, p := range passes {
		if p.err != nil {
			return fmt.Errorf("hedging pass (straggler=%t, hedge=%t): %w", p.straggler, p.hedge, p.err)
		}
		slices.Sort(p.lat)
		q := func(f float64) time.Duration {
			return p.lat[int(f*float64(len(p.lat)-1))].Round(100 * time.Microsecond)
		}
		if p.straggler {
			p95[i] = q(0.95)
		}
		fmt.Fprintf(w, "%-10s %-6s %9s %9s %9s %9.3f\n", onOff(p.straggler), onOff(p.hedge),
			q(0.50), q(0.95), q(0.99), float64(p.hedges)/float64(len(p.lat)))
	}
	verdict := "PASS"
	if p95[1] >= p95[0]/2 {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "hedge verdict: %s — straggler p95 %s -> %s with hedging (want below half)\n", verdict, p95[0], p95[1])
	return nil
}

// hedgePass replays the query sequence once and returns each query's
// latency and the hedges launched in total.
func hedgePass(opts Options, straggler, hedge bool) ([]time.Duration, int, error) {
	opts.Network = endpoint.NetworkProfile{RTT: hedgeRTT}
	eps := LUBM(4, opts).Endpoints
	if straggler {
		eps[0] = endpoint.NewFaulty(eps[0], endpoint.FaultConfig{Seed: 42, SlowBy: stragglerDelay, SlowRate: stragglerRate})
	}
	rc := endpoint.DefaultResilience()
	eng := core.New(eps, core.Config{Resilience: &rc, Statistics: &stats.Config{}, Hedge: hedge})
	ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
	err := eng.RefreshStats(ctx)
	cancel()
	if err != nil {
		return nil, 0, fmt.Errorf("stats harvest: %w", err)
	}
	names := []string{"Q1", "Q2", "Q3", "Q4"}
	lat := make([]time.Duration, 0, hedgeQueries)
	hedges := 0
	for i := 0; i < hedgeQueries; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
		start := time.Now()
		_, m, _, err := eng.ExecuteStreamTraced(ctx, lubm.Queries[names[i%len(names)]], nil)
		lat = append(lat, time.Since(start))
		cancel()
		if err != nil {
			return nil, 0, err
		}
		hedges += m.Hedges
	}
	return lat, hedges, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
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
