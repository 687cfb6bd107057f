package sparql

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"lusail/internal/rdf"
)

// benchResults builds n rows with shuffled-ish keys (i*7919 mod n) so
// Sort has real work to do.
func benchResults(n int) *Results {
	rows := make([]Binding, n)
	for i := range rows {
		k := (i * 7919) % n
		rows[i] = Binding{
			"s": rdf.IRI(fmt.Sprintf("http://ex/s%06d", k)),
			"o": rdf.Literal(fmt.Sprintf("value-%06d", i)),
		}
	}
	return &Results{Vars: []Var{"s", "o"}, Rows: rows}
}

// Sort precomputes one key per row (keyColumn) instead of rendering
// keys inside the comparator, where sort.Sort would render each row's
// key O(log n) times.
func BenchmarkResultsSort10k(b *testing.B) {
	src := benchResults(10_000)
	rows := make([]Binding, len(src.Rows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(rows, src.Rows)
		r := &Results{Vars: src.Vars, Rows: rows}
		r.Sort()
	}
}

func BenchmarkBindingKey(b *testing.B) {
	row := Binding{
		"s": rdf.IRI("http://example.org/resource/subject-000123"),
		"p": rdf.IRI("http://example.org/vocabulary#predicate"),
		"o": rdf.LangLiteral("a literal value with some length to it", "en"),
	}
	vars := []Var{"s", "p", "o"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = row.Key(vars)
	}
}

func BenchmarkKeyColumn10k(b *testing.B) {
	src := benchResults(10_000)
	vars := []Var{"s", "o"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = keyColumn(src.Rows, vars)
	}
}

// Streaming decode of a 10k-row SPARQL JSON result set, the per-query
// hot path at the federator (every subquery response passes through
// it).
func BenchmarkDecodeJSON10k(b *testing.B) {
	var buf bytes.Buffer
	if err := benchResults(10_000).EncodeJSON(&buf); err != nil {
		b.Fatal(err)
	}
	wire := buf.Bytes()
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := DecodeJSON(bytes.NewReader(wire))
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != 10_000 {
			b.Fatalf("rows = %d, want 10000", res.Len())
		}
	}
}

// Decode of a result set with heavy term repetition (the common case:
// a bound phase-2 subquery returns the same IRIs over and over), where
// the intern table collapses duplicate term strings.
func BenchmarkDecodeJSONRepetitive(b *testing.B) {
	rows := make([]Binding, 10_000)
	for i := range rows {
		rows[i] = Binding{
			"s": rdf.IRI(fmt.Sprintf("http://ex/s%d", i%100)),
			"o": rdf.TypedLiteral(fmt.Sprintf("%d", i%50), "http://www.w3.org/2001/XMLSchema#integer"),
		}
	}
	var buf bytes.Buffer
	if err := (&Results{Vars: []Var{"s", "o"}, Rows: rows}).EncodeJSON(&buf); err != nil {
		b.Fatal(err)
	}
	wire := buf.Bytes()
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeJSON(bytes.NewReader(wire)); err != nil {
			b.Fatal(err)
		}
	}
}

// Whole-result JSON encode of 5k rows: the endpoint substitute's
// per-response cost.
func BenchmarkEncodeJSON5k(b *testing.B) {
	res := benchResults(5_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.EncodeJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// The streaming JSON writer over the same 5k rows in 1024-row chunks,
// as lusail-server writes a streamed response.
func BenchmarkJSONWriter5k(b *testing.B) {
	res := benchResults(5_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := NewJSONRowEncoder(io.Discard)
		for lo := 0; lo < len(res.Rows); lo += 1024 {
			if err := enc.Rows(res.Vars, res.Rows[lo:min(lo+1024, len(res.Rows))]); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.Close(res.Vars); err != nil {
			b.Fatal(err)
		}
	}
}
