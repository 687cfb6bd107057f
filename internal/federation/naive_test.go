package federation

import (
	"testing"

	"lusail/internal/sparql"
)

func TestNaiveName(t *testing.T) {
	if n := NewNaive(nil, nil).Name(); n != "naive" {
		t.Errorf("name = %q", n)
	}
}

func TestPatternFetchQueryConstant(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { <http://ex/s> <http://ex/p> <http://ex/o> }`)
	if _, ok := PatternFetchQuery(q.Where.Patterns[0]); ok {
		t.Error("fully constant pattern should not produce a fetch query")
	}
	q2 := sparql.MustParse(`SELECT * WHERE { ?s <http://ex/p> <http://ex/o> }`)
	text, ok := PatternFetchQuery(q2.Where.Patterns[0])
	if !ok {
		t.Fatal("fetch query expected")
	}
	if _, err := sparql.Parse(text); err != nil {
		t.Errorf("fetch query does not parse: %v", err)
	}
}
