package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"lusail/internal/benchdata/largerdf"
	"lusail/internal/benchdata/lubm"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/stats"
)

// StatsReplay is the offline-statistics experiment: the same LUBM
// query mix replayed against one federation with the statistics
// service off and on, reporting the plan-time endpoint requests (ASK +
// check + COUNT) each configuration pays on a cold and a warm pass.
// With harvested summaries the warm pass must plan without a single
// endpoint round trip — that is the experiment's first verdict.
//
// The second half closes the self-tuning loop: the mix is replayed
// repeatedly with calibration off and on, and the median per-subquery
// q-error (estimate-vs-actual multiplicative error, from EXPLAIN
// ANALYZE) is compared. Calibration must end strictly closer to the
// truth than the raw summaries — the second verdict. It then replays
// LargeRDFBench the same way and reports what calibration does to the
// traffic the delay decisions ship (calibrationTraffic).
func StatsReplay(w io.Writer, opts Options) error {
	header(w, "stats", "Offline statistics: probe-free planning and self-tuning estimates (LUBM, 4 endpoints; LargeRDFBench)")

	queryNames := []string{"Q1", "Q2", "Q3", "Q4"}

	// Part 1: plan-time endpoint requests, stats off vs on.
	fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "stats", "harvest-q", "cold-plan", "warm-plan")
	var warmOn, coldOff, coldOn int
	for _, statsOn := range []bool{false, true} {
		fed := LUBM(4, opts)
		cfg := core.Config{}
		if statsOn {
			cfg.Statistics = &stats.Config{}
		}
		eng := core.New(fed.Endpoints, cfg)

		harvestQ := 0
		if statsOn {
			ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
			err := eng.RefreshStats(ctx)
			cancel()
			if err != nil {
				return fmt.Errorf("stats harvest: %w", err)
			}
			harvestQ = int(eng.StatsSnapshot().HarvestQueries)
		}

		cold, err := replayPlanRequests(eng, queryNames, opts)
		if err != nil {
			return fmt.Errorf("cold pass (stats=%t): %w", statsOn, err)
		}
		endpoint.ResetAll(fed.Endpoints)
		warm, err := replayPlanRequests(eng, queryNames, opts)
		if err != nil {
			return fmt.Errorf("warm pass (stats=%t): %w", statsOn, err)
		}

		label := "off"
		if statsOn {
			label = "on"
			coldOn, warmOn = cold, warm
		} else {
			coldOff = cold
		}
		fmt.Fprintf(w, "%-8s %12d %12d %12d\n", label, harvestQ, cold, warm)
	}
	fmt.Fprintln(w, "plan requests count ASK + check + COUNT probes sent while planning the pass.")
	if warmOn == 0 {
		fmt.Fprintf(w, "stats verdict: PASS — warm-pass plan requests: 0 (cold: %d -> %d with summaries)\n",
			coldOff, coldOn)
	} else {
		fmt.Fprintf(w, "stats verdict: FAIL — warm-pass plan requests: %d, want 0\n", warmOn)
	}

	// Part 2: calibration closes the estimate-vs-actual loop. Replay
	// the mix a few rounds so the correction factors learn, then read
	// every executed subquery's q-error off EXPLAIN ANALYZE.
	rounds := 4 * opts.Scale
	if rounds < 4 {
		rounds = 4
	}
	medians := map[bool]float64{}
	for _, calibrate := range []bool{false, true} {
		fed := LUBM(4, opts)
		eng := core.New(fed.Endpoints, core.Config{
			Statistics: &stats.Config{Calibrate: calibrate},
		})
		ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
		err := eng.RefreshStats(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("calibration harvest: %w", err)
		}
		for r := 0; r < rounds; r++ {
			for _, qn := range queryNames {
				if _, _, err := runQuery(eng, lubm.Queries[qn], opts.Timeout); err != nil {
					return fmt.Errorf("calibration replay %s: %w", qn, err)
				}
			}
		}
		qerrs, err := collectQErrors(eng, queryNames, opts)
		if err != nil {
			return err
		}
		medians[calibrate] = median(qerrs)
		label := "off"
		if calibrate {
			label = "on"
		}
		obs := eng.StatsSnapshot()
		fmt.Fprintf(w, "calibration %-4s median q-error %.3f  (subqueries: %d, observations: %d, factors: %d)\n",
			label, medians[calibrate], len(qerrs), obs.Observations, obs.CalibrationKeys)
	}
	if medians[true] < medians[false] {
		fmt.Fprintf(w, "calibration verdict: PASS — median q-error %.3f -> %.3f\n",
			medians[false], medians[true])
	} else {
		fmt.Fprintf(w, "calibration verdict: FAIL — median q-error %.3f -> %.3f (want strictly lower)\n",
			medians[false], medians[true])
	}
	return calibrationTraffic(w, opts)
}

// calibrationRounds is how many times calibrationTraffic replays each
// LargeRDFBench category; it reports the last round, after the
// correction factors have learned from the others.
const calibrationRounds = 6

// calibrationTraffic replays LargeRDFBench S, C and B with harvested
// statistics, calibration off and on, and prints the endpoint requests
// and rows each category shipped in the last round. B8's delayed
// subquery count per round shows whether its delay decisions settle.
func calibrationTraffic(w io.Writer, opts Options) error {
	type traffic struct{ requests, rows int64 }
	last := map[bool]map[string]traffic{}
	b8 := map[bool][]int{}
	for _, calibrate := range []bool{false, true} {
		fed := LargeRDF(opts)
		eng := core.New(fed.Endpoints, core.Config{Statistics: &stats.Config{Calibrate: calibrate}})
		ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
		err := eng.RefreshStats(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("LargeRDFBench harvest: %w", err)
		}
		last[calibrate] = map[string]traffic{}
		for r := 0; r < calibrationRounds; r++ {
			for _, cat := range largerdf.CategoryOrder {
				endpoint.ResetAll(fed.Endpoints)
				for _, qn := range largerdf.QueryNames(cat) {
					_, m, err := runQuery(eng, largerdf.Categories[cat][qn], opts.Timeout)
					if err != nil {
						return fmt.Errorf("LargeRDFBench %s (calibrate=%t): %w", qn, calibrate, err)
					}
					if qn == "B8" {
						b8[calibrate] = append(b8[calibrate], m.Delayed)
					}
				}
				st := endpoint.TotalStats(fed.Endpoints)
				last[calibrate][cat] = traffic{st.Requests, st.Rows}
			}
		}
	}
	fmt.Fprintf(w, "\ncalibration traffic: LargeRDFBench, round %d of %d, calibration off -> on\n", calibrationRounds, calibrationRounds)
	fmt.Fprintf(w, "%-4s %18s %22s\n", "cat", "endpoint requests", "rows shipped")
	for _, cat := range largerdf.CategoryOrder {
		off, on := last[false][cat], last[true][cat]
		fmt.Fprintf(w, "%-4s %8d -> %-8d %10d -> %d\n", cat, off.requests, on.requests, off.rows, on.rows)
	}
	fmt.Fprintf(w, "B8 delayed subqueries per round: off %v, on %v\n", b8[false], b8[true])
	return nil
}

// replayPlanRequests runs each query once and sums the plan-time
// endpoint requests (ASK + check + COUNT) the pass paid.
func replayPlanRequests(eng *core.Lusail, queryNames []string, opts Options) (int, error) {
	total := 0
	for _, qn := range queryNames {
		_, m, err := runQuery(eng, lubm.Queries[qn], opts.Timeout)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", qn, err)
		}
		total += m.AskRequests + m.CheckQueries + m.CountQueries
	}
	return total, nil
}

// collectQErrors gathers the estimate-vs-actual q-error of every
// executed subquery across the mix, via EXPLAIN ANALYZE.
func collectQErrors(eng *core.Lusail, queryNames []string, opts Options) ([]float64, error) {
	var qerrs []float64
	for _, qn := range queryNames {
		ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
		an, err := eng.ExplainAnalyze(ctx, lubm.Queries[qn])
		cancel()
		if err != nil {
			return nil, fmt.Errorf("explain analyze %s: %w", qn, err)
		}
		for _, sa := range an.Subqueries {
			if sa.Executed {
				qerrs = append(qerrs, sa.QError())
			}
		}
	}
	return qerrs, nil
}

// median of a non-empty slice (not mutated).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
