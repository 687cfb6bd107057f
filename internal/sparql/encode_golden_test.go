package sparql

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lusail/internal/rdf"
)

var updateEncodeGolden = flag.Bool("update", false, "rewrite testdata/encode/* from the current encoders")

// encodeFixtures covers every term kind the wire formats distinguish:
// IRIs, blank nodes, plain, typed and language-tagged literals,
// markup characters, control characters, unbound variables, an empty
// solution sequence and both ASK answers.
func encodeFixtures() map[string]*Results {
	return map[string]*Results{
		"select": {
			Vars: []Var{"s", "p", "o"},
			Rows: []Binding{
				{"s": rdf.IRI("http://ex/a?x=1&y=<2>"), "p": rdf.IRI("http://ex/p"), "o": rdf.Literal("plain")},
				{"s": rdf.Blank("b0"), "p": rdf.IRI("http://ex/q"), "o": rdf.TypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer")},
				{"s": rdf.IRI("http://ex/c"), "o": rdf.LangLiteral("chat <noir> & \"blanc\"", "fr")},
				{"s": rdf.IRI("http://ex/d"), "p": rdf.IRI("http://ex/p"), "o": rdf.Literal("tab\there\nnew\rline\x01bell,comma")},
				{"p": rdf.IRI("http://ex/p")},
				{},
			},
		},
		"empty":     {Vars: []Var{"s"}},
		"ask-true":  NewAskResult(true),
		"ask-false": NewAskResult(false),
	}
}

// TestEncodeGolden pins the bytes of the JSON, CSV and TSV encoders to
// the committed goldens, and the XML encoder to the Results its golden
// decodes to (XML's byte form is free, its content is not).
func TestEncodeGolden(t *testing.T) {
	encoders := map[string]func(*Results, *bytes.Buffer) error{
		"json": func(r *Results, b *bytes.Buffer) error { return r.EncodeJSON(b) },
		"csv":  func(r *Results, b *bytes.Buffer) error { return r.EncodeCSV(b) },
		"tsv":  func(r *Results, b *bytes.Buffer) error { return r.EncodeTSV(b) },
		"xml":  func(r *Results, b *bytes.Buffer) error { return r.EncodeXML(b) },
	}
	for name, res := range encodeFixtures() {
		for ext, encode := range encoders {
			var buf bytes.Buffer
			if err := encode(res, &buf); err != nil {
				t.Fatalf("%s.%s: %v", name, ext, err)
			}
			path := filepath.Join("testdata", "encode", name+"."+ext)
			if *updateEncodeGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if ext != "xml" {
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s.%s:\n got %q\nwant %q", name, ext, buf.Bytes(), want)
				}
				continue
			}
			got, err := DecodeXML(&buf)
			if err != nil {
				t.Fatalf("%s.xml: decoding output: %v", name, err)
			}
			golden, err := DecodeXML(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("%s.xml: decoding golden: %v", name, err)
			}
			if !reflect.DeepEqual(got, golden) {
				t.Errorf("%s.xml decodes to %+v, golden to %+v", name, got, golden)
			}
		}
	}
}

// A document written in one-row chunks is the document written whole,
// in every format.
func TestWritersChunkBoundaries(t *testing.T) {
	res := encodeFixtures()["select"]
	for _, name := range []string{"json", "xml", "csv", "tsv"} {
		f, ok := FormatNamed(name)
		if !ok {
			t.Fatalf("no format %q", name)
		}
		var whole, chunked bytes.Buffer
		if err := res.Encode(f.NewWriter(&whole)); err != nil {
			t.Fatal(err)
		}
		w := f.NewWriter(&chunked)
		for i := range res.Rows {
			if err := w.Rows(res.Vars, res.Rows[i:i+1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(res.Vars); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(whole.Bytes(), chunked.Bytes()) {
			t.Errorf("%s: chunked\n%q\nwhole\n%q", name, chunked.Bytes(), whole.Bytes())
		}
	}
}

// Negotiate maps an Accept header to the format it names, JSON by
// default.
func TestNegotiate(t *testing.T) {
	for accept, want := range map[string]string{
		"":                                "json",
		"*/*":                             "json",
		"application/sparql-results+json": "json",
		"application/sparql-results+xml":  "xml",
		"text/csv; charset=utf-8":         "csv",
		"text/tab-separated-values":       "tsv",
		"text/csv, application/sparql-results+xml;q=0.5": "xml",
	} {
		if got := Negotiate(accept).Name; got != want {
			t.Errorf("Negotiate(%q) = %s, want %s", accept, got, want)
		}
	}
}
