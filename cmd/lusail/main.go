// Command lusail runs one federated SPARQL query. Endpoints are given
// as repeated -endpoint flags, each either an http(s):// SPARQL
// endpoint URL or a path to a local N-Triples file (loaded in
// process):
//
//	lusail -endpoint http://host1:8001 -endpoint data/univ1.nt \
//	       -query 'SELECT * WHERE { ?s ?p ?o } LIMIT 5'
//
// The -engine flag switches between Lusail and the reimplemented
// baselines; -profile prints per-phase metrics for Lusail.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lusail"
	"lusail/internal/sparql"
)

type endpointFlags []string

func (e *endpointFlags) String() string { return strings.Join(*e, ",") }
func (e *endpointFlags) Set(v string) error {
	*e = append(*e, v)
	return nil
}

func main() {
	var endpoints endpointFlags
	var (
		query     = flag.String("query", "", "SPARQL query text")
		queryFile = flag.String("query-file", "", "file containing the SPARQL query")
		engine    = flag.String("engine", "lusail", "lusail | fedx | splendid | hibiscus | naive")
		timeout   = flag.Duration("timeout", 5*time.Minute, "query timeout")
		profile   = flag.Bool("profile", false, "print phase metrics (lusail only)")
		explain   = flag.Bool("explain", false, "print the execution plan instead of running the query (lusail only)")
		format    = flag.String("format", "table", "output format: table | csv | tsv | json | xml")
	)
	flag.Var(&endpoints, "endpoint", "endpoint URL or N-Triples file (repeatable)")
	flag.Parse()

	if len(endpoints) == 0 {
		log.Fatal("at least one -endpoint is required")
	}
	text := *query
	if *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			log.Fatal(err)
		}
		text = string(b)
	}
	if text == "" {
		log.Fatal("a -query or -query-file is required")
	}

	var eps []lusail.Endpoint
	for _, spec := range endpoints {
		if strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://") {
			eps = append(eps, lusail.ConnectHTTP(spec, spec))
			continue
		}
		f, err := os.Open(spec)
		if err != nil {
			log.Fatalf("open %s: %v", spec, err)
		}
		name := strings.TrimSuffix(filepath.Base(spec), filepath.Ext(spec))
		ep, err := lusail.LoadEndpoint(name, f)
		f.Close()
		if err != nil {
			log.Fatalf("load %s: %v", spec, err)
		}
		eps = append(eps, ep)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *explain {
		if *engine != "lusail" {
			log.Fatal("-explain is only supported with -engine lusail")
		}
		plan, err := lusail.New(eps).Explain(ctx, text)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(plan.String())
		return
	}

	start := time.Now()

	var res *lusail.Results
	var m lusail.Metrics
	var err error
	if *engine == "lusail" {
		res, m, _, err = lusail.New(eps).QueryStreamTraced(ctx, text, nil)
	} else {
		eng, berr := lusail.NewBaseline(*engine, eps)
		if berr != nil {
			log.Fatal(berr)
		}
		res, err = eng.Execute(ctx, text)
	}
	elapsed := time.Since(start)
	if err != nil {
		log.Fatalf("query failed: %v", err)
	}

	f, ok := sparql.FormatNamed(*format)
	switch {
	case *format == "table" && res.AskForm:
		fmt.Println(res.Ask)
	case *format == "table":
		// The table is the TSV document: ?-named columns of N-Triples
		// terms.
		err = res.EncodeTSV(os.Stdout)
	case ok:
		err = res.Encode(f.NewWriter(os.Stdout))
	default:
		log.Fatalf("unknown format %q", *format)
	}
	if err != nil {
		log.Fatalf("writing results: %v", err)
	}
	fmt.Fprintf(os.Stderr, "# %d rows in %s via %s\n", res.Len(), elapsed, *engine)
	if *profile && *engine == "lusail" {
		fmt.Fprintf(os.Stderr, "# source selection %s  analysis %s  execution %s\n",
			m.SourceSelection, m.Analysis, m.Execution)
		fmt.Fprintf(os.Stderr, "# subqueries %d (%d delayed)  GJVs %d  remote requests %d\n",
			m.Subqueries, m.Delayed, m.GJVs, m.RemoteRequests())
	}
}
