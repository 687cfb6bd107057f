// Package sparql implements the SPARQL fragment used by Lusail and its
// baselines: SELECT / ASK queries over basic graph patterns with
// FILTER (including EXISTS / NOT EXISTS), OPTIONAL, UNION, VALUES,
// DISTINCT, ORDER BY, LIMIT/OFFSET, and COUNT aggregation. The package
// provides the AST, a lexer/parser, and a serializer so that federated
// engines can decompose a parsed query and ship subqueries to
// endpoints as SPARQL text.
package sparql

import (
	"lusail/internal/rdf"
)

// Var is a SPARQL variable name without the leading '?'.
type Var string

// Elem is one position of a triple pattern: either a variable or a
// constant RDF term.
type Elem struct {
	Var  Var      // set when IsVar
	Term rdf.Term // set when !IsVar
}

// IsVar reports whether the element is a variable.
func (e Elem) IsVar() bool { return e.Var != "" }

// V makes a variable element.
func V(name string) Elem { return Elem{Var: Var(name)} }

// C makes a constant element.
func C(t rdf.Term) Elem { return Elem{Term: t} }

// String renders the element in SPARQL syntax.
func (e Elem) String() string {
	if e.IsVar() {
		return "?" + string(e.Var)
	}
	return e.Term.String()
}

// TriplePattern is one pattern in a basic graph pattern.
type TriplePattern struct {
	S, P, O Elem
}

// String renders the pattern in SPARQL syntax (no trailing dot).
func (tp TriplePattern) String() string {
	return tp.S.String() + " " + tp.P.String() + " " + tp.O.String()
}

// Vars returns the variables of the pattern in S,P,O order without
// duplicates.
func (tp TriplePattern) Vars() []Var {
	var out []Var
	seen := map[Var]bool{}
	for _, e := range []Elem{tp.S, tp.P, tp.O} {
		if e.IsVar() && !seen[e.Var] {
			seen[e.Var] = true
			out = append(out, e.Var)
		}
	}
	return out
}

// HasVar reports whether v occurs in the pattern.
func (tp TriplePattern) HasVar(v Var) bool {
	return (tp.S.IsVar() && tp.S.Var == v) ||
		(tp.P.IsVar() && tp.P.Var == v) ||
		(tp.O.IsVar() && tp.O.Var == v)
}

// Form is the query form.
type Form uint8

const (
	// SelectForm is a SELECT query.
	SelectForm Form = iota
	// AskForm is an ASK query.
	AskForm
)

// OrderKey is one ORDER BY criterion.
type OrderKey struct {
	Var  Var
	Desc bool
}

// ValuesBlock is an inline VALUES data block. Each row gives one term
// per variable; a zero Term means UNDEF.
type ValuesBlock struct {
	Vars []Var
	Rows [][]rdf.Term
}

// UnionBlock is a UNION of alternative group patterns.
type UnionBlock struct {
	Alternatives []*GroupGraphPattern
}

// GroupGraphPattern is a SPARQL group: a basic graph pattern plus
// filters, optional groups, unions, and values blocks. Evaluation
// semantics: join(BGP, unions..., values...), then left-join each
// optional in order, then apply filters.
type GroupGraphPattern struct {
	Patterns  []TriplePattern
	Filters   []Expr
	Optionals []*GroupGraphPattern
	Unions    []*UnionBlock
	Values    []*ValuesBlock
}

// AllVars returns every variable mentioned anywhere in the group,
// in first-appearance order.
func (g *GroupGraphPattern) AllVars() []Var {
	var out []Var
	seen := map[Var]bool{}
	add := func(v Var) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	g.walkVars(add)
	return out
}

func (g *GroupGraphPattern) walkVars(add func(Var)) {
	if g == nil {
		return
	}
	for _, tp := range g.Patterns {
		for _, v := range tp.Vars() {
			add(v)
		}
	}
	for _, f := range g.Filters {
		for _, v := range f.Vars() {
			add(v)
		}
	}
	for _, u := range g.Unions {
		for _, alt := range u.Alternatives {
			alt.walkVars(add)
		}
	}
	for _, o := range g.Optionals {
		o.walkVars(add)
	}
	for _, vb := range g.Values {
		for _, v := range vb.Vars {
			add(v)
		}
	}
}

// Query is a parsed SPARQL query.
type Query struct {
	Form     Form
	Distinct bool
	// Vars is the projection list; empty means SELECT *.
	Vars []Var
	// Count, when true, makes the query SELECT (COUNT(*) AS ?CountVar)
	// (or COUNT(DISTINCT ?CountArg) when CountArg is set).
	Count         bool
	CountVar      Var
	CountArg      Var // variable inside COUNT(...); empty means *
	CountDistinct bool
	Where         *GroupGraphPattern
	OrderBy       []OrderKey
	Limit         int // -1 means no limit
	Offset        int
	Prefixes      map[string]string
}

// NewSelect returns an empty SELECT * query with no limit.
func NewSelect() *Query {
	return &Query{Form: SelectForm, Limit: -1, Where: &GroupGraphPattern{}}
}

// NewAsk returns an empty ASK query.
func NewAsk() *Query {
	return &Query{Form: AskForm, Limit: -1, Where: &GroupGraphPattern{}}
}

// ProjectedVars returns the effective projection: Vars if non-empty,
// otherwise all variables of the WHERE clause.
func (q *Query) ProjectedVars() []Var {
	if q.Count {
		return []Var{q.CountVar}
	}
	if len(q.Vars) > 0 {
		return q.Vars
	}
	return q.Where.AllVars()
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	cp := *q
	cp.Vars = append([]Var(nil), q.Vars...)
	cp.OrderBy = append([]OrderKey(nil), q.OrderBy...)
	if q.Prefixes != nil {
		cp.Prefixes = make(map[string]string, len(q.Prefixes))
		for k, v := range q.Prefixes {
			cp.Prefixes[k] = v
		}
	}
	cp.Where = q.Where.Clone()
	return &cp
}

// Clone returns a deep copy of the group.
func (g *GroupGraphPattern) Clone() *GroupGraphPattern {
	if g == nil {
		return nil
	}
	cp := &GroupGraphPattern{
		Patterns: append([]TriplePattern(nil), g.Patterns...),
		Filters:  append([]Expr(nil), g.Filters...),
	}
	for _, o := range g.Optionals {
		cp.Optionals = append(cp.Optionals, o.Clone())
	}
	for _, u := range g.Unions {
		nu := &UnionBlock{}
		for _, alt := range u.Alternatives {
			nu.Alternatives = append(nu.Alternatives, alt.Clone())
		}
		cp.Unions = append(cp.Unions, nu)
	}
	for _, vb := range g.Values {
		nvb := &ValuesBlock{Vars: append([]Var(nil), vb.Vars...)}
		for _, row := range vb.Rows {
			nvb.Rows = append(nvb.Rows, append([]rdf.Term(nil), row...))
		}
		cp.Values = append(cp.Values, nvb)
	}
	return cp
}

// Binding maps variables to terms; it is one solution row.
type Binding map[Var]rdf.Term

// Clone copies the binding.
func (b Binding) Clone() Binding {
	nb := make(Binding, len(b))
	for k, v := range b {
		nb[k] = v
	}
	return nb
}

// Compatible reports whether two bindings agree on all shared
// variables (the SPARQL join compatibility condition).
func (b Binding) Compatible(o Binding) bool {
	if len(o) < len(b) {
		b, o = o, b
	}
	for k, v := range b {
		if ov, ok := o[k]; ok && ov != v {
			return false
		}
	}
	return true
}

// Merge returns b extended with o's bindings. The caller must have
// checked compatibility.
func (b Binding) Merge(o Binding) Binding {
	nb := make(Binding, len(b)+len(o))
	for k, v := range b {
		nb[k] = v
	}
	for k, v := range o {
		nb[k] = v
	}
	return nb
}

// Key renders the values of vars (in order) as a single string usable
// as a hash-join key. Unbound variables contribute "UNDEF".
func (b Binding) Key(vars []Var) string {
	buf := getKeyBuf()
	*buf = b.AppendKey((*buf)[:0], vars)
	k := string(*buf)
	putKeyBuf(buf)
	return k
}

// AppendKey appends the join key of b over vars to buf and returns the
// extended slice. Hot paths call it with a pooled scratch buffer and
// probe hash tables via idx[string(buf)], which the compiler compiles
// to an allocation-free lookup — rendering a key then costs no
// allocations at all.
func (b Binding) AppendKey(buf []byte, vars []Var) []byte {
	for _, v := range vars {
		if t, ok := b[v]; ok {
			buf = t.AppendTo(buf)
		} else {
			buf = append(buf, "UNDEF"...)
		}
		buf = append(buf, '\x00')
	}
	return buf
}
