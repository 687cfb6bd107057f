// Command lusail-bench regenerates the paper's tables and figures:
//
//	lusail-bench -exp fig12            # one experiment
//	lusail-bench -exp all -scale 2     # everything, bigger datasets
//
// Available experiments: table1, prep, fig3, fig9, fig10a, fig10bc,
// fig11, fig12, fig13, fig14, bio, ablade, absape, mqo, scale,
// faults, degrade, workload, chaos, stats, all. Each prints the
// rows/series the corresponding figure or table reports; see
// EXPERIMENTS.md for the mapping and expected shapes.
//
// Observability modes (run instead of -exp when set):
//
//	lusail-bench -trace                      # span trees + EXPLAIN ANALYZE on LUBM
//	lusail-bench -trace -metrics-dump -      # ... then the Prometheus metrics page
//	lusail-bench -pprof :6060 -exp fig12     # pprof listener during any run
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/experiments"
	"lusail/internal/obs"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id ("+strings.Join(experiments.RegistryNames(), ", ")+")")
		scale     = flag.Int("scale", 1, "dataset scale factor")
		timeout   = flag.Duration("timeout", 60*time.Second, "per-query timeout (paper: 1h)")
		runs      = flag.Int("runs", 1, "repetitions per measurement (paper: 3)")
		wan       = flag.Bool("wan", false, "simulate WAN latency on all experiments")
		traceDump = flag.Bool("trace", false, "execute the LUBM queries and dump each span tree with EXPLAIN ANALYZE")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) while running")
		metricsTo = flag.String("metrics-dump", "", `write the Prometheus metrics page here after a -trace run ("-" = stdout)`)
		otlp      = flag.String("otlp-endpoint", "", "OTLP/HTTP collector base URL to ship -trace span trees to (empty disables)")
	)
	flag.Parse()

	opts := experiments.Options{Scale: *scale, Timeout: *timeout, Runs: *runs}
	if *wan {
		opts.Network = endpoint.WANProfile
	}
	if *metricsTo != "" {
		opts.Metrics = obs.NewRegistry()
	}
	var exporter *obs.SpanExporter
	if *otlp != "" {
		exporter = obs.NewSpanExporter(obs.ExporterConfig{
			Endpoint: *otlp,
			Service:  "lusail-bench",
		})
		opts.TraceSink = exporter
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	start := time.Now()
	switch {
	case *traceDump:
		if err := experiments.TraceDump(os.Stdout, opts); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ncompleted trace in %s\n", time.Since(start).Round(time.Millisecond))
	default:
		runner, ok := experiments.Registry[*exp]
		if !ok {
			log.Fatalf("unknown experiment %q; available: %s", *exp, strings.Join(experiments.RegistryNames(), ", "))
		}
		if err := runner(os.Stdout, opts); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ncompleted %s in %s\n", *exp, time.Since(start).Round(time.Millisecond))
	}

	if opts.Metrics != nil {
		if err := dumpMetrics(*metricsTo, opts.Metrics); err != nil {
			log.Fatal(err)
		}
	}
	if exporter != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := exporter.Shutdown(ctx); err != nil {
			log.Printf("trace exporter drain incomplete: %v", err)
		}
	}
}

// dumpMetrics writes the registry's Prometheus text exposition to path
// ("-" = stdout), so a bench run's counters can be compared against a
// live lusail-server /metrics scrape.
func dumpMetrics(path string, reg *obs.Registry) error {
	if path == "-" {
		return reg.WriteText(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
