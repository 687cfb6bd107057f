package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"lusail/internal/benchdata/lubm"
	"lusail/internal/core"
	"lusail/internal/endpoint"
)

// WorkloadReplay is the cross-query reuse experiment: a concurrent
// replay of a Zipf-distributed query mix (heavy repeat traffic, the
// regime the persistent subquery cache targets) against one LUBM
// federation, run twice — with the cross-query subquery cache off and
// on — reporting throughput, tail latency, remote traffic, and cache
// hit rates side by side.
//
// Each pass warms every distinct query once (populating the planning
// caches both configurations share, as the paper does for all systems
// in §VI-B), resets the endpoint counters, and replays the identical
// request sequence with a fixed worker pool. Plan-time endpoint
// requests (ASK / check / COUNT) are expected to be ~0 in both passes
// on repeats; the cached pass additionally reuses phase-1 subquery
// results, so its endpoint request total collapses toward the
// phase-2-only floor.
func WorkloadReplay(w io.Writer, opts Options) error {
	header(w, "workload", "Zipf replay: cross-query reuse on vs off (LUBM, 4 endpoints)")

	queryNames := []string{"Q1", "Q2", "Q3", "Q4"}
	requests := 120 * opts.Scale
	workers := 8

	// One fixed-seed Zipf sequence shared by both passes, so they see
	// the identical request stream. s=1.3 over 4 queries makes the head
	// query roughly half the traffic — a mild hot-key skew.
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(queryNames)-1))
	sequence := make([]int, requests)
	for i := range sequence {
		sequence[i] = int(zipf.Uint64())
	}

	fmt.Fprintf(w, "mix: %d requests over %v, zipf(1.3), %d workers\n",
		requests, queryNames, workers)
	fmt.Fprintf(w, "%-10s %10s %10s %10s %12s %12s %10s %10s\n",
		"cache", "qps", "p50", "p99", "endpoint-req", "plan-req", "sq-hits", "hit-rate")

	for _, cached := range []bool{false, true} {
		cfg := core.Config{}
		label := "off"
		if cached {
			cfg.SubqueryCacheSize = 256
			cfg.SubqueryCacheTTL = time.Minute
			label = "on"
		}
		fed := LUBM(4, opts)
		eng := core.New(fed.Endpoints, cfg)

		// Warm-up: each distinct query once. This fills the ASK / check
		// / COUNT planning caches (both passes) and, in the cached pass,
		// the subquery-result cache.
		for _, qn := range queryNames {
			if _, _, err := runQuery(eng, lubm.Queries[qn], opts.Timeout); err != nil {
				return fmt.Errorf("workload warm-up %s: %w", qn, err)
			}
		}
		endpoint.ResetAll(fed.Endpoints)
		hitsBefore := subqueryStats(eng).Hits

		latencies := make([]time.Duration, requests)
		planReqs := make([]int, requests)
		var firstErr error
		var errMu sync.Mutex
		next := make(chan int)
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					q := lubm.Queries[queryNames[sequence[i]]]
					ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
					t0 := time.Now()
					_, m, _, err := eng.ExecuteStreamTraced(ctx, q, nil)
					latencies[i] = time.Since(t0)
					cancel()
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("workload replay %s: %w", queryNames[sequence[i]], err)
						}
						errMu.Unlock()
						continue
					}
					planReqs[i] = m.AskRequests + m.CheckQueries + m.CountQueries
				}
			}()
		}
		for i := 0; i < requests; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		elapsed := time.Since(start)
		if firstErr != nil {
			return firstErr
		}

		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		p50 := latencies[requests/2]
		p99 := latencies[requests*99/100]
		qps := float64(requests) / elapsed.Seconds()
		totalPlan := 0
		for _, n := range planReqs {
			totalPlan += n
		}
		st := endpoint.TotalStats(fed.Endpoints)
		sq := subqueryStats(eng)
		hits := sq.Hits - hitsBefore
		hitRate := 0.0
		if total := sq.Hits + sq.Misses; total > 0 {
			hitRate = float64(sq.Hits) / float64(total)
		}
		fmt.Fprintf(w, "%-10s %10.1f %10s %10s %12d %12d %10d %9.0f%%\n",
			label, qps, p50.Round(time.Microsecond), p99.Round(time.Microsecond),
			st.Requests, totalPlan, hits, 100*hitRate)
	}
	fmt.Fprintln(w, "plan-req counts ASK+check+COUNT probes sent during the replay (warm planning caches => ~0).")
	fmt.Fprintln(w, "sq-hits counts phase-1 subquery executions served from the cross-query cache during the replay.")
	return nil
}

// subqueryStats extracts the subquery cache's counters from the
// engine's cache report (zero-valued when the cache is disabled).
func subqueryStats(eng *core.Lusail) core.CacheStats {
	for _, e := range eng.CacheStats() {
		if e.Name == "subquery" {
			return e.Stats
		}
	}
	return core.CacheStats{}
}
