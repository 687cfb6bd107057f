package federation

import (
	"reflect"
	"testing"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

func bnd(pairs ...string) sparql.Binding {
	out := sparql.Binding{}
	for i := 0; i < len(pairs); i += 2 {
		out[sparql.Var(pairs[i])] = rdf.IRI("http://ex/" + pairs[i+1])
	}
	return out
}

func TestCertainVars(t *testing.T) {
	rows := []sparql.Binding{
		bnd("x", "1", "y", "2"),
		bnd("x", "3"), // y missing here
	}
	got := CertainVars(rows)
	if !got["x"] || got["y"] || len(got) != 1 {
		t.Errorf("CertainVars = %v", got)
	}
	if len(CertainVars(nil)) != 0 {
		t.Error("empty rows should have no certain vars")
	}
}

func TestSharedCertainVars(t *testing.T) {
	left := []sparql.Binding{bnd("x", "1", "y", "2")}
	right := []sparql.Binding{bnd("y", "2", "z", "3")}
	if got := SharedCertainVars(left, right); !reflect.DeepEqual(got, []sparql.Var{"y"}) {
		t.Errorf("shared = %v", got)
	}
}

func TestJoinBindings(t *testing.T) {
	left := []sparql.Binding{bnd("x", "a", "y", "1"), bnd("x", "b", "y", "2")}
	right := []sparql.Binding{bnd("y", "1", "z", "p"), bnd("y", "1", "z", "q")}
	out := JoinBindings(left, right)
	if len(out) != 2 {
		t.Fatalf("join rows = %d: %v", len(out), out)
	}
	for _, row := range out {
		if row["x"] != rdf.IRI("http://ex/a") {
			t.Errorf("row = %v", row)
		}
	}
	if JoinBindings(nil, right) != nil || JoinBindings(left, nil) != nil {
		t.Error("join with empty side should be nil")
	}
}

func TestLeftJoinBindings(t *testing.T) {
	left := []sparql.Binding{bnd("x", "a"), bnd("x", "b")}
	right := []sparql.Binding{bnd("x", "a", "y", "1")}
	out := LeftJoinBindings(left, right, nil)
	if len(out) != 2 {
		t.Fatalf("rows = %v", out)
	}
	// With a rejecting filter, left rows survive bare.
	q := sparql.MustParse(`SELECT * WHERE { ?a ?b ?c . FILTER (?y = <http://ex/nope>) }`)
	out = LeftJoinBindings(left, right, q.Where.Filters)
	for _, row := range out {
		if _, ok := row["y"]; ok {
			t.Errorf("filter should have rejected the match: %v", row)
		}
	}
}

func TestDedupRows(t *testing.T) {
	rows := []sparql.Binding{bnd("x", "a"), bnd("x", "a"), bnd("x", "b")}
	out := DedupRows(rows, []sparql.Var{"x"})
	if len(out) != 2 {
		t.Errorf("dedup rows = %v", out)
	}
}

func TestValuesRowsHelper(t *testing.T) {
	vb := &sparql.ValuesBlock{
		Vars: []sparql.Var{"x", "y"},
		Rows: [][]rdf.Term{
			{rdf.IRI("http://ex/1"), rdf.IRI("http://ex/2")},
			{{}, rdf.IRI("http://ex/3")}, // UNDEF x
		},
	}
	rows := ValuesRows(vb)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if _, ok := rows[1]["x"]; ok {
		t.Error("UNDEF should leave the variable unbound")
	}
	if rows[1]["y"] != rdf.IRI("http://ex/3") {
		t.Errorf("row 1 = %v", rows[1])
	}
}

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
