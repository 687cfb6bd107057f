// Package experiments regenerates every table and figure of the
// paper's evaluation (§VI) over the synthetic federations. Each
// experiment prints the same rows/series the paper reports; the
// cmd/lusail-bench tool and the repository's benchmarks are thin
// wrappers around this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"lusail/internal/baseline/fedx"
	"lusail/internal/baseline/hibiscus"
	"lusail/internal/baseline/splendid"
	"lusail/internal/benchdata/bio"
	"lusail/internal/benchdata/largerdf"
	"lusail/internal/benchdata/lubm"
	"lusail/internal/benchdata/qfed"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/obs"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/trace"
)

// Options tunes all experiments.
type Options struct {
	// Scale multiplies dataset sizes (1 = quick).
	Scale int
	// Timeout bounds each query execution; the paper uses one hour,
	// we default to something laptop-friendly. Timed-out runs are
	// reported as the paper reports them: "TO".
	Timeout time.Duration
	// Network simulates the link between federator and endpoints;
	// zero value means an ideal in-process link.
	Network endpoint.NetworkProfile
	// Runs averages each measurement over this many repetitions
	// (paper: 3).
	Runs int
	// Metrics, when non-nil, receives the observability metric
	// families (query counts, phase timings, per-endpoint traffic)
	// from TraceDump, so a run can be compared against a scraped
	// /metrics page.
	Metrics *obs.Registry
	// TraceSink, when non-nil, receives every recorded query trace
	// from TraceDump, so a bench run's span trees can be shipped to an
	// OTLP collector alongside the rendered dump.
	TraceSink trace.Sink
}

func (o Options) runs() int {
	if o.Runs <= 0 {
		return 1
	}
	return o.Runs
}

// Federation bundles endpoints with their typed handles.
type Federation struct {
	Endpoints []endpoint.Endpoint
	Locals    []*endpoint.Local
	Names     []string
}

// NewFederation wraps graphs as in-process endpoints.
func NewFederation(names []string, graphs []rdf.Graph, net endpoint.NetworkProfile) *Federation {
	f := &Federation{Names: names}
	for i, g := range graphs {
		l := endpoint.NewLocal(names[i], store.FromGraph(g)).WithNetwork(net)
		f.Endpoints = append(f.Endpoints, l)
		f.Locals = append(f.Locals, l)
	}
	return f
}

// SpreadRegions reassigns the federation's endpoints round-robin over
// the paper's seven cloud regions (heterogeneous RTTs), as Fig. 14's
// deployment does.
func (f *Federation) SpreadRegions() *Federation {
	for i, l := range f.Locals {
		l.WithNetwork(endpoint.RegionProfile(i))
	}
	return f
}

// LUBM builds an n-university federation.
func LUBM(n int, opts Options) *Federation {
	cfg := lubm.DefaultConfig(n)
	cfg.Scale = opts.Scale
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("univ%d", i)
	}
	return NewFederation(names, lubm.Generate(cfg), opts.Network)
}

// QFed builds the four-dataset life-science federation.
func QFed(opts Options) *Federation {
	cfg := qfed.DefaultConfig()
	cfg.Drugs *= opts.Scale
	return NewFederation(qfed.EndpointNames, qfed.Generate(cfg), opts.Network)
}

// QFedPartitioned distributes the four QFed datasets over n endpoints
// (n <= 4), merging datasets round-robin; used by sweeps that vary the
// endpoint count while keeping the data fixed.
func QFedPartitioned(n int, opts Options) *Federation {
	cfg := qfed.DefaultConfig()
	cfg.Drugs *= opts.Scale
	graphs := qfed.Generate(cfg)
	if n > len(graphs) {
		n = len(graphs)
	}
	merged := make([]rdf.Graph, n)
	names := make([]string, n)
	for i, g := range graphs {
		merged[i%n] = append(merged[i%n], g...)
	}
	for i := range names {
		names[i] = fmt.Sprintf("qfed%d", i)
	}
	return NewFederation(names, merged, opts.Network)
}

// LargeRDF builds the 13-dataset federation.
func LargeRDF(opts Options) *Federation {
	cfg := largerdf.DefaultConfig()
	cfg.Scale = opts.Scale
	return NewFederation(largerdf.EndpointNames, largerdf.Generate(cfg), opts.Network)
}

// Bio builds the Bio2RDF-shaped federation.
func Bio(opts Options) *Federation {
	cfg := bio.DefaultConfig()
	cfg.Genes *= opts.Scale
	return NewFederation(bio.EndpointNames, bio.Generate(cfg), opts.Network)
}

// EngineNames lists the engines every comparison covers.
var EngineNames = []string{"lusail", "fedx", "hibiscus", "splendid"}

// BuildEngine constructs a federated engine by name over the
// federation. Index-based engines build their index here (preprocessing).
func BuildEngine(name string, f *Federation) (federation.Engine, error) {
	switch name {
	case "lusail":
		return core.New(f.Endpoints, core.Config{}), nil
	case "lusail-ablade":
		return core.New(f.Endpoints, core.Config{AssumeAllGlobal: true}), nil
	case "fedx":
		return fedx.New(f.Endpoints, fedx.Config{}), nil
	case "splendid":
		idx, err := splendid.BuildIndex(f.Endpoints)
		if err != nil {
			return nil, err
		}
		return splendid.New(f.Endpoints, idx, splendid.Config{}), nil
	case "hibiscus":
		sum, err := hibiscus.BuildSummary(f.Endpoints)
		if err != nil {
			return nil, err
		}
		return hibiscus.New(f.Endpoints, sum, fedx.Config{}), nil
	case "naive":
		return federation.NewNaive(f.Endpoints, federation.NewKnowledge(f.Endpoints)), nil
	default:
		return nil, fmt.Errorf("unknown engine %q", name)
	}
}

// Measurement is one query execution's outcome.
type Measurement struct {
	Engine   string
	Query    string
	Duration time.Duration
	Rows     int
	// Requests/RowsShipped/Bytes are endpoint-side counters.
	Requests    int64
	RowsShipped int64
	Bytes       int64
	TimedOut    bool
	Err         error
	// Metrics is the last measured run's own profile when the engine is
	// a *core.Lusail (zero otherwise).
	Metrics core.Metrics
}

// Runtime renders the duration the way the figures do: "TO" for
// timeouts, "ERR" for failures.
func (m Measurement) Runtime() string {
	switch {
	case m.TimedOut:
		return "TO"
	case m.Err != nil:
		return "ERR"
	default:
		return fmt.Sprintf("%.3fs", m.Duration.Seconds())
	}
}

// Run executes one query on one engine, averaged over opts.Runs, with
// a warm-up run first (the paper caches source selection for all
// systems, §VI-B).
func Run(eng federation.Engine, f *Federation, queryName, query string, opts Options) Measurement {
	m := Measurement{Engine: eng.Name(), Query: queryName}
	// Warm-up: populate ASK/check/count caches.
	{
		ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
		_, err := eng.Execute(ctx, query)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				m.TimedOut = true
			}
			m.Err = err
			return m
		}
	}
	var total time.Duration
	for i := 0; i < opts.runs(); i++ {
		endpoint.ResetAll(f.Endpoints)
		ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
		start := time.Now()
		res, mt, err := execute(ctx, eng, query)
		total += time.Since(start)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				m.TimedOut = true
			}
			m.Err = err
			return m
		}
		m.Rows, m.Metrics = res.Len(), mt
		st := endpoint.TotalStats(f.Endpoints)
		m.Requests = st.Requests
		m.RowsShipped = st.Rows
		m.Bytes = st.Bytes
	}
	m.Duration = total / time.Duration(opts.runs())
	return m
}

// execute runs query on eng, with the call's own Metrics when eng is
// a *core.Lusail.
func execute(ctx context.Context, eng federation.Engine, query string) (*sparql.Results, core.Metrics, error) {
	if l, ok := eng.(*core.Lusail); ok {
		res, m, _, err := l.ExecuteStreamTraced(ctx, query, nil)
		return res, m, err
	}
	res, err := eng.Execute(ctx, query)
	return res, core.Metrics{}, err
}

// header prints a figure banner.
func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s — %s ===\n", id, title)
}
