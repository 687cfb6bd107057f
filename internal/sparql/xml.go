package sparql

import (
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strings"

	"lusail/internal/rdf"
)

// The SPARQL Query Results XML Format
// (https://www.w3.org/TR/rdf-sparql-XMLres/), the second standard wire
// format next to JSON; real-world endpoints negotiate between the two.

type xmlSparql struct {
	XMLName xml.Name    `xml:"http://www.w3.org/2005/sparql-results# sparql"`
	Head    xmlHead     `xml:"head"`
	Boolean *bool       `xml:"boolean,omitempty"`
	Results *xmlResults `xml:"results,omitempty"`
}

type xmlHead struct {
	Variables []xmlVariable `xml:"variable"`
}

type xmlVariable struct {
	Name string `xml:"name,attr"`
}

type xmlResults struct {
	Results []xmlResult `xml:"result"`
}

type xmlResult struct {
	Bindings []xmlBinding `xml:"binding"`
}

type xmlBinding struct {
	Name    string      `xml:"name,attr"`
	URI     *string     `xml:"uri,omitempty"`
	BNode   *string     `xml:"bnode,omitempty"`
	Literal *xmlLiteral `xml:"literal,omitempty"`
}

type xmlLiteral struct {
	Datatype string `xml:"datatype,attr,omitempty"`
	Lang     string `xml:"http://www.w3.org/XML/1998/namespace lang,attr,omitempty"`
	Value    string `xml:",chardata"`
}

// EncodeXML writes r in the SPARQL Query Results XML Format.
func (r *Results) EncodeXML(w io.Writer) error { return r.Encode(formatXML.NewWriter(w)) }

// xmlEncoder writes the XML format: the document opening and head as
// text, one encoded <result> element per solution, flushed per chunk,
// and the closing tags.
type xmlEncoder struct {
	w   io.Writer
	enc *xml.Encoder
}

func newXMLEncoder(w io.Writer) encoder { return &xmlEncoder{w: w, enc: xml.NewEncoder(w)} }

const xmlOpen = xml.Header + `<sparql xmlns="http://www.w3.org/2005/sparql-results#"><head>`

var xmlResultStart = xml.StartElement{Name: xml.Name{Local: "result"}}

func (e *xmlEncoder) head(vars []Var) error {
	var b strings.Builder
	b.WriteString(xmlOpen)
	for _, v := range vars {
		b.WriteString(`<variable name="`)
		xml.EscapeText(&b, []byte(v)) // a strings.Builder cannot fail
		b.WriteString(`"></variable>`)
	}
	b.WriteString("</head><results>")
	_, err := io.WriteString(e.w, b.String())
	return err
}

func (e *xmlEncoder) rows(vars []Var, rows []Binding) error {
	for _, row := range rows {
		var res xmlResult
		// Emit bindings in header order for determinism.
		for _, v := range vars {
			if t, ok := row[v]; ok {
				res.Bindings = append(res.Bindings, termToXML(string(v), t))
			}
		}
		// Variables outside the header (SELECT * edge cases).
		for v, t := range row {
			if !slices.Contains(vars, v) {
				res.Bindings = append(res.Bindings, termToXML(string(v), t))
			}
		}
		if err := e.enc.EncodeElement(res, xmlResultStart); err != nil {
			return err
		}
	}
	return e.enc.Flush()
}

func (e *xmlEncoder) tail() error {
	_, err := io.WriteString(e.w, "</results></sparql>\n")
	return err
}

func (e *xmlEncoder) boolean(v bool) error {
	_, err := fmt.Fprintf(e.w, xmlOpen+"</head><boolean>%t</boolean></sparql>\n", v)
	return err
}

func termToXML(name string, t rdf.Term) xmlBinding {
	b := xmlBinding{Name: name}
	switch t.Kind {
	case rdf.KindIRI:
		v := t.Value
		b.URI = &v
	case rdf.KindBlank:
		v := t.Value
		b.BNode = &v
	default:
		b.Literal = &xmlLiteral{Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
	}
	return b
}

// DecodeXML reads the SPARQL Query Results XML Format.
func DecodeXML(r io.Reader) (*Results, error) {
	var doc xmlSparql
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("sparql: decoding XML results: %w", err)
	}
	if doc.Boolean != nil {
		return NewAskResult(*doc.Boolean), nil
	}
	out := &Results{}
	for _, v := range doc.Head.Variables {
		out.Vars = append(out.Vars, Var(v.Name))
	}
	if doc.Results == nil {
		return out, nil
	}
	for _, res := range doc.Results.Results {
		row := Binding{}
		for _, b := range res.Bindings {
			t, err := termFromXML(b)
			if err != nil {
				return nil, err
			}
			row[Var(b.Name)] = t
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func termFromXML(b xmlBinding) (rdf.Term, error) {
	switch {
	case b.URI != nil:
		return rdf.IRI(*b.URI), nil
	case b.BNode != nil:
		return rdf.Blank(*b.BNode), nil
	case b.Literal != nil:
		switch {
		case b.Literal.Lang != "":
			return rdf.LangLiteral(b.Literal.Value, b.Literal.Lang), nil
		case b.Literal.Datatype != "":
			return rdf.TypedLiteral(b.Literal.Value, b.Literal.Datatype), nil
		default:
			return rdf.Literal(b.Literal.Value), nil
		}
	default:
		return rdf.Term{}, fmt.Errorf("sparql: XML binding %q has no term", b.Name)
	}
}
