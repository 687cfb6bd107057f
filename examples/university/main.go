// University: the paper's running example (Figures 1 and 2). Two
// university endpoints where EP2's professor Tim holds a PhD from MIT,
// whose address lives at EP1 — the interlink a naive per-endpoint
// evaluation misses. The example runs Qa through Lusail, shows the
// locality-aware decomposition, and contrasts it with per-endpoint
// concatenation.
//
//	go run ./examples/university
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"lusail"
)

// EP1 hosts MIT; EP2 hosts CMU. Tim (at CMU) got his PhD from MIT.
const ep1Data = `<http://ex/Lee> <http://ex/advisor> <http://ex/Ben> .
<http://ex/Lee> <http://ex/takesCourse> <http://ex/OS> .
<http://ex/Ben> <http://ex/teacherOf> <http://ex/OS> .
<http://ex/Ben> <http://ex/PhDDegreeFrom> <http://ex/MIT> .
<http://ex/MIT> <http://ex/address> "XXX" .
`

const ep2Data = `<http://ex/Kim> <http://ex/advisor> <http://ex/Joy> .
<http://ex/Kim> <http://ex/advisor> <http://ex/Tim> .
<http://ex/Kim> <http://ex/takesCourse> <http://ex/DB> .
<http://ex/Joy> <http://ex/teacherOf> <http://ex/DB> .
<http://ex/Tim> <http://ex/teacherOf> <http://ex/DB> .
<http://ex/Joy> <http://ex/PhDDegreeFrom> <http://ex/CMU> .
<http://ex/Tim> <http://ex/PhDDegreeFrom> <http://ex/MIT> .
<http://ex/CMU> <http://ex/address> "CCCC" .
`

// qa is the paper's Figure-2 query: students taking a course taught by
// their advisor, with the URI and address of the advisor's alma mater.
const qa = `SELECT ?S ?P ?U ?A WHERE {
	?S <http://ex/advisor> ?P .
	?S <http://ex/takesCourse> ?C .
	?P <http://ex/teacherOf> ?C .
	?P <http://ex/PhDDegreeFrom> ?U .
	?U <http://ex/address> ?A .
}`

func main() {
	ep1, err := lusail.LoadEndpoint("EP1", strings.NewReader(ep1Data))
	if err != nil {
		log.Fatal(err)
	}
	ep2, err := lusail.LoadEndpoint("EP2", strings.NewReader(ep2Data))
	if err != nil {
		log.Fatal(err)
	}
	eps := []lusail.Endpoint{ep1, ep2}
	ctx := context.Background()

	// Per-endpoint evaluation + concatenation misses Tim's answer.
	fmt.Println("per-endpoint evaluation (concatenation):")
	for _, ep := range eps {
		res, err := ep.Query(ctx, qa)
		if err != nil {
			log.Fatal(err)
		}
		for _, row := range res.Rows {
			printRow(ep.Name(), row)
		}
	}

	fmt.Println("\nLusail (locality-aware decomposition traverses the interlink):")
	fed := lusail.New(eps)
	res, m, _, err := fed.QueryStreamTraced(ctx, qa, nil)
	if err != nil {
		log.Fatal(err)
	}
	res.Sort()
	for _, row := range res.Rows {
		printRow("federated", row)
	}

	fmt.Printf("\nLADE found %d global join variables and produced %d subqueries (%d delayed)\n",
		m.GJVs, m.Subqueries, m.Delayed)
	fmt.Printf("check queries sent: %d; phases: selection %s, analysis %s, execution %s\n",
		m.CheckQueries, m.SourceSelection, m.Analysis, m.Execution)
	fmt.Println("\nnote the (Kim, Tim, MIT, \"XXX\") row: Tim's alma mater address lives at EP1,")
	fmt.Println("so no single endpoint can produce it — exactly the paper's motivating case.")
}

func printRow(src string, row lusail.Binding) {
	fmt.Printf("  [%s] %-18s %-18s %-18s %s\n", src,
		short(row, "S"), short(row, "P"), short(row, "U"), short(row, "A"))
}

func short(row lusail.Binding, v lusail.Var) string {
	t, ok := row[v]
	if !ok {
		return "-"
	}
	s := t.Value
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		return s[i+1:]
	}
	return s
}
