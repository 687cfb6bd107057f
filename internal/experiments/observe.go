// Observability experiment: execution-trace dumps (lusail-bench
// -trace) over the LUBM federation, the benchmark every other
// experiment is calibrated against, plus two LargeRDFBench queries for
// the plan shapes LUBM lacks.
package experiments

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"

	"lusail/internal/benchdata/largerdf"
	"lusail/internal/benchdata/lubm"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/obs"
)

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
	var cfg core.Config
	if opts.Metrics != nil {
		// A quiet QueryLog feeds the registry's query-level families and a
		// scrape-time collector projects the per-endpoint traffic. The dump
		// itself goes to stdout, so query log events are discarded rather
		// than interleaved.
		cfg.QueryLog = obs.NewQueryLog(obs.QueryLogConfig{
			Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
			Registry: opts.Metrics,
		})
		obs.RegisterEndpointStats(opts.Metrics, func() []endpoint.EndpointStat {
			return endpoint.PerEndpointStats(f.Endpoints)
		})
	}
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
