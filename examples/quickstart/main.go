// Quickstart: build two in-memory SPARQL endpoints, federate them with
// Lusail, and run a query whose answer spans both.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"lusail"
)

const libraryA = `<http://ex/book1> <http://ex/title> "The Go Programming Language" .
<http://ex/book1> <http://ex/author> <http://ex/donovan> .
<http://ex/donovan> <http://ex/name> "Alan Donovan" .
`

// libraryB knows a different author of the same book: resolving both
// authors' names requires data from both endpoints.
const libraryB = `<http://ex/book1> <http://ex/author> <http://ex/kernighan> .
<http://ex/kernighan> <http://ex/name> "Brian Kernighan" .
<http://ex/book2> <http://ex/title> "The C Programming Language" .
<http://ex/book2> <http://ex/author> <http://ex/kernighan> .
`

func main() {
	epA, err := lusail.LoadEndpoint("libraryA", strings.NewReader(libraryA))
	if err != nil {
		log.Fatal(err)
	}
	epB, err := lusail.LoadEndpoint("libraryB", strings.NewReader(libraryB))
	if err != nil {
		log.Fatal(err)
	}

	fed := lusail.New([]lusail.Endpoint{epA, epB})
	res, m, _, err := fed.QueryStreamTraced(context.Background(), `
		SELECT ?title ?name WHERE {
			?book <http://ex/title> ?title .
			?book <http://ex/author> ?a .
			?a <http://ex/name> ?name .
		} ORDER BY ?title ?name`, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("books and their authors across the federation:")
	for _, row := range res.Rows {
		fmt.Printf("  %-35s %s\n", row["title"].Value, row["name"].Value)
	}
	fmt.Printf("\nplan: %d subqueries (%d delayed), %d global join variables\n",
		m.Subqueries, m.Delayed, m.GJVs)
	fmt.Printf("remote requests: %d (ASK %d, checks %d, counts %d, execution %d)\n",
		m.RemoteRequests(), m.AskRequests, m.CheckQueries, m.CountQueries,
		m.Phase1Requests+m.Phase2Requests)
}
