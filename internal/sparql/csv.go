package sparql

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// EncodeCSV writes r in the SPARQL 1.1 Query Results CSV Format: plain
// values, IRIs bare, literals unquoted lexical forms (the lossy,
// spreadsheet-friendly format).
func (r *Results) EncodeCSV(w io.Writer) error { return r.Encode(formatCSV.NewWriter(w)) }

// EncodeTSV writes r in the SPARQL 1.1 Query Results TSV Format:
// terms in full Turtle/N-Triples syntax, tab separated — lossless,
// unlike CSV.
func (r *Results) EncodeTSV(w io.Writer) error { return r.Encode(formatTSV.NewWriter(w)) }

// csvEncoder writes the CSV format, one record per solution, flushed
// per chunk.
type csvEncoder struct {
	w   io.Writer
	cw  *csv.Writer
	rec []string
}

func newCSVEncoder(w io.Writer) encoder {
	cw := csv.NewWriter(w)
	cw.UseCRLF = true
	return &csvEncoder{w: w, cw: cw}
}

func (e *csvEncoder) head(vars []Var) error {
	header := make([]string, len(vars))
	for i, v := range vars {
		header[i] = string(v)
	}
	return e.cw.Write(header)
}

func (e *csvEncoder) rows(vars []Var, rows []Binding) error {
	for _, row := range rows {
		e.rec = e.rec[:0]
		for _, v := range vars {
			e.rec = append(e.rec, row[v].Value)
		}
		if err := e.cw.Write(e.rec); err != nil {
			return err
		}
	}
	e.cw.Flush()
	return e.cw.Error()
}

func (e *csvEncoder) tail() error {
	e.cw.Flush()
	return e.cw.Error()
}

func (e *csvEncoder) boolean(v bool) error {
	_, err := fmt.Fprintf(e.w, "ask\r\n%t\r\n", v)
	return err
}

// tsvEncoder writes the TSV format: each term in N-Triples syntax,
// which already escapes the tabs and newlines that would break the
// framing.
type tsvEncoder struct {
	w io.Writer
	b strings.Builder
}

func newTSVEncoder(w io.Writer) encoder { return &tsvEncoder{w: w} }

func (e *tsvEncoder) head(vars []Var) error {
	for i, v := range vars {
		if i > 0 {
			e.b.WriteByte('\t')
		}
		e.b.WriteByte('?')
		e.b.WriteString(string(v))
	}
	e.b.WriteByte('\n')
	return e.flush()
}

func (e *tsvEncoder) rows(vars []Var, rows []Binding) error {
	for _, row := range rows {
		for i, v := range vars {
			if i > 0 {
				e.b.WriteByte('\t')
			}
			if t, ok := row[v]; ok {
				e.b.WriteString(t.String())
			}
		}
		e.b.WriteByte('\n')
	}
	return e.flush()
}

func (e *tsvEncoder) flush() error {
	_, err := io.WriteString(e.w, e.b.String())
	e.b.Reset()
	return err
}

func (e *tsvEncoder) tail() error { return nil }

func (e *tsvEncoder) boolean(v bool) error {
	_, err := fmt.Fprintf(e.w, "?ask\n%t\n", v)
	return err
}
