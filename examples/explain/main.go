// Explain: inspect Lusail's execution plan for the paper's Qa without
// running it, then run an overlapping workload as concurrent queries
// that share subquery executions through the subquery cache
// (multi-query optimization).
//
//	go run ./examples/explain
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"lusail"
)

const uni1 = `<http://ex/Lee> <http://ex/advisor> <http://ex/Ben> .
<http://ex/Lee> <http://ex/takesCourse> <http://ex/OS> .
<http://ex/Ben> <http://ex/teacherOf> <http://ex/OS> .
<http://ex/Ben> <http://ex/PhDDegreeFrom> <http://ex/MIT> .
<http://ex/MIT> <http://ex/address> "XXX" .
`

const uni2 = `<http://ex/Kim> <http://ex/advisor> <http://ex/Tim> .
<http://ex/Kim> <http://ex/takesCourse> <http://ex/DB> .
<http://ex/Tim> <http://ex/teacherOf> <http://ex/DB> .
<http://ex/Tim> <http://ex/PhDDegreeFrom> <http://ex/MIT> .
<http://ex/CMU> <http://ex/address> "CCCC" .
`

const qa = `SELECT ?S ?P ?U ?A WHERE {
	?S <http://ex/advisor> ?P .
	?S <http://ex/takesCourse> ?C .
	?P <http://ex/teacherOf> ?C .
	?P <http://ex/PhDDegreeFrom> ?U .
	?U <http://ex/address> ?A .
}`

func main() {
	ep1, err := lusail.LoadEndpoint("EP1", strings.NewReader(uni1))
	if err != nil {
		log.Fatal(err)
	}
	ep2, err := lusail.LoadEndpoint("EP2", strings.NewReader(uni2))
	if err != nil {
		log.Fatal(err)
	}
	fed := lusail.New([]lusail.Endpoint{ep1, ep2}, lusail.WithSubqueryCache(64, time.Minute))
	ctx := context.Background()

	fmt.Println("=== execution plan for Qa (no data moved yet) ===")
	plan, err := fed.Explain(ctx, qa)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan.String())

	fmt.Println("\n=== concurrent workload with multi-query optimization ===")
	workload := []string{qa, qa, `SELECT ?S ?P WHERE {
		?S <http://ex/advisor> ?P .
		?S <http://ex/takesCourse> ?C .
		?P <http://ex/teacherOf> ?C .
	}`}
	// Concurrent queries on one federation share the subquery cache,
	// which is single-flight: a subquery two queries need goes to the
	// endpoints once, and each query's own metrics show who sent it.
	results := make([]*lusail.Results, len(workload))
	metrics := make([]lusail.Metrics, len(workload))
	errs := make([]error, len(workload))
	var wg sync.WaitGroup
	for i, q := range workload {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			results[i], metrics[i], _, errs[i] = fed.QueryStreamTraced(ctx, q, nil)
		}(i, q)
	}
	wg.Wait()
	for i := range workload {
		if errs[i] != nil {
			log.Fatalf("query %d: %v", i, errs[i])
		}
		fmt.Printf("query %d: %d rows, %d phase-1 requests\n",
			i, results[i].Len(), metrics[i].Phase1Requests)
	}
}
