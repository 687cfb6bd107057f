package sparql

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Writer streams one SPARQL results document in one wire format. Rows
// appends a chunk of solutions (writing the document head with the
// first one), Close ends the document, and Boolean writes a whole ASK
// document instead. The first write error sticks: every later call
// returns it. A server pairs each Rows call with a flush, so clients
// see solutions while the query still runs.
type Writer struct {
	enc     encoder
	started bool
	err     error
}

// encoder is one format's half of a Writer: the document head, a
// chunk of solution rows, the document tail, and a whole ASK document.
type encoder interface {
	head(vars []Var) error
	rows(vars []Var, rows []Binding) error
	tail() error
	boolean(v bool) error
}

// Rows appends one chunk of solutions, writing the head first if
// needed.
func (w *Writer) Rows(vars []Var, rows []Binding) error {
	if w.head(vars) == nil {
		w.err = w.enc.rows(vars, rows)
	}
	return w.err
}

// Close ends the document. vars heads a valid empty document when no
// chunk ever arrived.
func (w *Writer) Close(vars []Var) error {
	if w.head(vars) == nil {
		w.err = w.enc.tail()
	}
	return w.err
}

func (w *Writer) head(vars []Var) error {
	if w.err == nil && !w.started {
		w.started = true
		w.err = w.enc.head(vars)
	}
	return w.err
}

// Boolean writes the whole document of an ASK result.
func (w *Writer) Boolean(v bool) error {
	if w.err == nil {
		w.started = true
		w.err = w.enc.boolean(v)
	}
	return w.err
}

// Started reports whether any bytes have been written; a server uses
// it to decide between a clean HTTP error and an in-band trailer.
func (w *Writer) Started() bool { return w.started }

// Encode runs rw over the whole result.
func (r *Results) Encode(rw *Writer) error {
	if r.AskForm {
		return rw.Boolean(r.Ask)
	}
	if err := rw.Rows(r.Vars, r.Rows); err != nil {
		return err
	}
	return rw.Close(r.Vars)
}

// Format is one SPARQL results wire format.
type Format struct {
	// Name is the format's short name ("json", "xml", "csv", "tsv").
	Name string
	// MediaType is the format's Content-Type.
	MediaType string
	encoder   func(io.Writer) encoder
}

// NewWriter returns a Writer producing f over w.
func (f Format) NewWriter(w io.Writer) *Writer { return &Writer{enc: f.encoder(w)} }

var (
	formatJSON = Format{"json", "application/sparql-results+json", newJSONEncoder}
	formatXML  = Format{"xml", "application/sparql-results+xml", newXMLEncoder}
	formatCSV  = Format{"csv", "text/csv", newCSVEncoder}
	formatTSV  = Format{"tsv", "text/tab-separated-values", newTSVEncoder}
	// formats lists every format, the default (JSON) first.
	formats = []Format{formatJSON, formatXML, formatCSV, formatTSV}
)

// Negotiate picks the format an Accept header asks for: XML, CSV or
// TSV when the header names its media type (in that order of
// preference), JSON otherwise.
func Negotiate(accept string) Format {
	for _, f := range formats[1:] {
		if strings.Contains(accept, f.MediaType) {
			return f
		}
	}
	return formatJSON
}

// FormatNamed returns the format with the given short name.
func FormatNamed(name string) (Format, bool) {
	for _, f := range formats {
		if f.Name == name {
			return f, true
		}
	}
	return Format{}, false
}

// NewJSONRowEncoder returns a Writer producing the SPARQL 1.1 Query
// Results JSON Format over w.
func NewJSONRowEncoder(w io.Writer) *Writer { return formatJSON.NewWriter(w) }

// EncodeJSON writes r in the SPARQL 1.1 Query Results JSON Format.
func (r *Results) EncodeJSON(w io.Writer) error { return r.Encode(NewJSONRowEncoder(w)) }

// jsonEncoder writes the JSON format: the head and the opening of the
// bindings array, then each chunk's bindings.
type jsonEncoder struct {
	w     io.Writer
	first bool
	buf   []byte
}

// jsonMarshalRows bounds the rows serialized per json.Marshal call and
// jsonWriteBytes sets the pieces the serialized rows are written in
// (the last piece of a chunk may be smaller): a large chunk's first
// rows reach the wire without waiting for the whole chunk to be
// serialized, and a whole result still goes out in a few large writes
// rather than one per call.
const (
	jsonMarshalRows = 64
	jsonWriteBytes  = 64 << 10
)

func newJSONEncoder(w io.Writer) encoder { return &jsonEncoder{w: w, first: true} }

func (e *jsonEncoder) head(vars []Var) error {
	names := make([]string, len(vars))
	for i, v := range vars {
		names[i] = string(v)
	}
	head, err := json.Marshal(names)
	if err != nil {
		return err
	}
	_, err = io.WriteString(e.w, `{"head":{"vars":`+string(head)+`},"results":{"bindings":[`)
	return err
}

func (e *jsonEncoder) rows(_ []Var, rows []Binding) error {
	for len(rows) > 0 {
		batch := make([]map[string]jsonTerm, min(len(rows), jsonMarshalRows))
		for i := range batch {
			batch[i] = make(map[string]jsonTerm, len(rows[i]))
			for v, t := range rows[i] {
				batch[i][string(v)] = termToJSON(t)
			}
		}
		rows = rows[len(batch):]
		b, err := json.Marshal(batch)
		if err != nil {
			return err
		}
		// Marshal wrote "[a,b]": its inside continues the document's
		// bindings array, after a comma unless it opens it.
		if !e.first {
			e.buf = append(e.buf, ',')
		}
		e.first = false
		e.buf = append(e.buf, b[1:len(b)-1]...)
		if len(e.buf) >= jsonWriteBytes || len(rows) == 0 {
			if _, err := e.w.Write(e.buf); err != nil {
				return err
			}
			e.buf = e.buf[:0]
		}
	}
	return nil
}

func (e *jsonEncoder) tail() error {
	_, err := io.WriteString(e.w, "]}}\n")
	return err
}

func (e *jsonEncoder) boolean(v bool) error {
	_, err := fmt.Fprintf(e.w, "{\"head\":{\"vars\":null},\"boolean\":%t}\n", v)
	return err
}
