package sparql

import (
	"fmt"
	"io"
	"sort"

	"lusail/internal/rdf"
)

// Results holds the outcome of evaluating a query: a boolean for ASK
// queries, or a solution sequence for SELECT queries.
type Results struct {
	// Ask is meaningful when the query form was ASK.
	Ask bool
	// AskForm marks the result as an ASK result.
	AskForm bool
	// Vars is the header (projection order).
	Vars []Var
	// Rows are the solutions.
	Rows []Binding
	// Completeness, when non-nil, reports whether the result is exact
	// or which endpoint/subquery contributions a degraded execution
	// dropped. Results from healthy executions leave it nil.
	Completeness *Completeness `json:"-"`
	// Streamed counts rows that were delivered through a streaming
	// sink instead of materialized into Rows. A streamed execution's
	// summary result has empty Rows and non-zero Streamed.
	Streamed int `json:"-"`
}

// NewAskResult builds an ASK result.
func NewAskResult(v bool) *Results { return &Results{AskForm: true, Ask: v} }

// Len returns the number of solution rows (for streamed executions,
// the number of rows delivered through the sink).
func (r *Results) Len() int {
	if r.Rows == nil && r.Streamed > 0 {
		return r.Streamed
	}
	return len(r.Rows)
}

// Sort orders rows deterministically by the rendered values of Vars;
// used by tests and stable output. Each row's sort key is rendered
// exactly once up front — re-rendering inside the comparator costs
// O(n log n) key constructions and dominated sorting wide results.
func (r *Results) Sort() {
	keys := keyColumn(r.Rows, r.Vars)
	sort.Sort(&rowSorter{keys: keys, rows: r.Rows})
}

// rowSorter sorts rows and their precomputed keys in lockstep.
type rowSorter struct {
	keys []string
	rows []Binding
}

func (s *rowSorter) Len() int           { return len(s.rows) }
func (s *rowSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *rowSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}

// Project returns a copy of the results restricted to vars.
func (r *Results) Project(vars []Var) *Results {
	out := &Results{Vars: append([]Var(nil), vars...)}
	out.Rows = make([]Binding, 0, len(r.Rows))
	for _, row := range r.Rows {
		nb := make(Binding, len(vars))
		for _, v := range vars {
			if t, ok := row[v]; ok {
				nb[v] = t
			}
		}
		out.Rows = append(out.Rows, nb)
	}
	return out
}

// jsonTerm mirrors an RDF term object of the SPARQL 1.1 Query Results
// JSON Format.
type jsonTerm struct {
	Type     string `json:"type"` // "uri", "literal", "bnode"
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"xml:lang,omitempty"`
}

// DecodeJSON reads the SPARQL 1.1 JSON results format. It streams:
// rows are decoded incrementally from r (no whole-payload buffering)
// with repeated terms interned; see DecodeJSONStream.
func DecodeJSON(r io.Reader) (*Results, error) {
	return DecodeJSONStream(r)
}

func termToJSON(t rdf.Term) jsonTerm {
	switch t.Kind {
	case rdf.KindIRI:
		return jsonTerm{Type: "uri", Value: t.Value}
	case rdf.KindBlank:
		return jsonTerm{Type: "bnode", Value: t.Value}
	default:
		return jsonTerm{Type: "literal", Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
	}
}

func termFromJSON(jt jsonTerm) (rdf.Term, error) {
	switch jt.Type {
	case "uri":
		return rdf.IRI(jt.Value), nil
	case "bnode":
		return rdf.Blank(jt.Value), nil
	case "literal", "typed-literal":
		switch {
		case jt.Lang != "":
			return rdf.LangLiteral(jt.Value, jt.Lang), nil
		case jt.Datatype != "":
			return rdf.TypedLiteral(jt.Value, jt.Datatype), nil
		default:
			return rdf.Literal(jt.Value), nil
		}
	default:
		return rdf.Term{}, fmt.Errorf("sparql: unknown JSON term type %q", jt.Type)
	}
}

// ApproxWireBytes estimates the serialized size of the results in
// bytes; the endpoint latency simulator charges bandwidth cost with
// it without paying for a real serialization.
func (r *Results) ApproxWireBytes() int64 {
	if r.AskForm {
		return 64
	}
	var n int64 = 64
	for _, v := range r.Vars {
		n += int64(len(v)) + 8
	}
	for _, row := range r.Rows {
		for v, t := range row {
			n += int64(len(v)) + int64(len(t.Value)) + int64(len(t.Datatype)) + int64(len(t.Lang)) + 32
		}
	}
	return n
}
