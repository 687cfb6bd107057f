// Observability experiments: latency-percentile benchmarking with JSON
// output (lusail-bench -bench-json) and execution-trace dumps
// (lusail-bench -trace). Both run the LUBM federation, the benchmark
// every other experiment is calibrated against; the trace dump adds two
// LargeRDFBench queries for the plan shapes LUBM lacks.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"time"

	"lusail/internal/benchdata/largerdf"
	"lusail/internal/benchdata/lubm"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/obs"
	"lusail/internal/sparql"
)

// observedConfig wires opts.Metrics (when set) into a core.Config: a
// quiet QueryLog feeds the registry's query-level families, and a
// scrape-time collector projects the federation's per-endpoint
// traffic. The bench output itself stays on stdout, so query log
// events are discarded rather than interleaved.
func observedConfig(opts Options, f *Federation) core.Config {
	cfg := core.Config{}
	if opts.Metrics == nil {
		return cfg
	}
	cfg.QueryLog = obs.NewQueryLog(obs.QueryLogConfig{
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		Registry: opts.Metrics,
	})
	obs.RegisterEndpointStats(opts.Metrics, func() []endpoint.EndpointStat {
		return endpoint.PerEndpointStats(f.Endpoints)
	})
	return cfg
}

// QueryBench is one query's latency distribution over repeated runs.
// Total latency is measured over sink-delivered execution; first-row
// latency is the delay until the first chunk reaches the sink (equal
// to total for queries whose solution modifiers hold the stream until
// it has drained, or that return nothing).
type QueryBench struct {
	Query         string  `json:"query"`
	Runs          int     `json:"runs"`
	Rows          int     `json:"rows"`
	Requests      int64   `json:"requests"`
	MinMs         float64 `json:"min_ms"`
	MeanMs        float64 `json:"mean_ms"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`
	FirstRowMinMs float64 `json:"first_row_min_ms"`
	FirstRowP50Ms float64 `json:"first_row_p50_ms"`
	Err           string  `json:"error,omitempty"`
}

// BenchReport is the JSON document -bench-json writes.
type BenchReport struct {
	Benchmark    string       `json:"benchmark"`
	Universities int          `json:"universities"`
	Scale        int          `json:"scale"`
	Runs         int          `json:"runs"`
	Queries      []QueryBench `json:"queries"`
}

// durQuantile returns the q-quantile of sorted durations (nearest-rank).
func durQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Bench measures per-query latency distributions for Lusail on the
// LUBM federation: one warm-up run per query (populating the analysis
// caches, as every experiment does), then opts.Runs timed runs.
func Bench(opts Options) BenchReport {
	const nUniv = 4
	f := LUBM(nUniv, opts)
	l := core.New(f.Endpoints, observedConfig(opts, f))
	report := BenchReport{
		Benchmark: "lubm", Universities: nUniv,
		Scale: opts.Scale, Runs: opts.runs(),
	}

	names := make([]string, 0, len(lubm.Queries))
	for name := range lubm.Queries {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		qb := QueryBench{Query: name, Runs: opts.runs()}
		query := lubm.Queries[name]
		run := func() (total, first time.Duration, err error) {
			ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
			defer cancel()
			start := time.Now()
			res, _, err := l.ExecuteStream(ctx, query,
				func(vars []sparql.Var, rows []sparql.Binding) error {
					if first == 0 {
						first = time.Since(start)
					}
					return nil
				})
			if err != nil {
				return 0, 0, err
			}
			qb.Rows = res.Len()
			total = time.Since(start)
			if first == 0 {
				first = total // no chunk ever arrived (empty result)
			}
			return total, first, nil
		}
		if _, _, err := run(); err != nil { // warm-up
			qb.Err = err.Error()
			report.Queries = append(report.Queries, qb)
			continue
		}
		endpoint.ResetAll(f.Endpoints)
		var durs, firsts []time.Duration
		var total time.Duration
		for i := 0; i < opts.runs(); i++ {
			d, fd, err := run()
			if err != nil {
				qb.Err = err.Error()
				break
			}
			durs = append(durs, d)
			firsts = append(firsts, fd)
			total += d
		}
		if len(durs) > 0 {
			sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
			sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
			qb.MinMs = ms(durs[0])
			qb.MaxMs = ms(durs[len(durs)-1])
			qb.MeanMs = ms(total / time.Duration(len(durs)))
			qb.P50Ms = ms(durQuantile(durs, 0.50))
			qb.P95Ms = ms(durQuantile(durs, 0.95))
			qb.P99Ms = ms(durQuantile(durs, 0.99))
			qb.FirstRowMinMs = ms(firsts[0])
			qb.FirstRowP50Ms = ms(durQuantile(firsts, 0.50))
			qb.Requests = endpoint.TotalStats(f.Endpoints).Requests
		}
		report.Queries = append(report.Queries, qb)
		endpoint.ResetAll(f.Endpoints)
	}
	return report
}

// BenchJSON runs Bench and writes the report as indented JSON.
func BenchJSON(w io.Writer, opts Options) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Bench(opts))
}

// TraceDump executes every LUBM query, and one LargeRDFBench query with
// an OPTIONAL (C7) and one with a UNION (C8), once with tracing enabled
// and renders each span tree followed by its EXPLAIN ANALYZE report. An
// analysis that does not cover exactly the subqueries the execution
// planned is an error.
func TraceDump(w io.Writer, opts Options) error {
	names := make([]string, 0, len(lubm.Queries))
	for name := range lubm.Queries {
		names = append(names, name)
	}
	sort.Strings(names)
	if err := traceDump(w, opts, LUBM(4, opts), lubm.Queries, names); err != nil {
		return err
	}
	return traceDump(w, opts, LargeRDF(opts), largerdf.ComplexQueries, []string{"C7", "C8"})
}

func traceDump(w io.Writer, opts Options, f *Federation, queries map[string]string, names []string) error {
	cfg := observedConfig(opts, f)
	cfg.Instrument = true
	l := core.New(f.Endpoints, cfg)
	for _, name := range names {
		ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
		an, err := l.ExplainAnalyze(ctx, queries[name])
		cancel()
		if err != nil {
			return fmt.Errorf("trace %s: %w", name, err)
		}
		if len(an.Subqueries) != an.Metrics.Subqueries {
			return fmt.Errorf("trace %s: the analysis covers %d subqueries, the execution planned %d",
				name, len(an.Subqueries), an.Metrics.Subqueries)
		}
		if opts.TraceSink != nil {
			opts.TraceSink.ExportTrace(an.Trace)
		}
		fmt.Fprintf(w, "== %s ==\n%s\n%s\n", name, an.Trace.Root.String(), an)
	}
	return nil
}
