package sparql

import (
	"slices"

	"lusail/internal/rdf"
)

// The solution algebra every evaluator shares: the endpoint engine, the
// Lusail executor and the baselines' mediators. There is one join key
// rule: a join hashes on the shared variables that every row on both
// sides binds, and Compatible checks any other shared variable per
// candidate pair. A shared variable that only some rows bind (a UNION
// alternative or an OPTIONAL leaves it unbound) is never part of the
// key, so an unbound row still meets every row it is compatible with.

// CertainVars returns the variables of vars that every row binds, in
// the order of vars.
func CertainVars(rows []Binding, vars []Var) []Var {
	return certain(rows, append([]Var(nil), vars...))
}

// certain is CertainVars filtering vars in place.
func certain(rows []Binding, vars []Var) []Var {
	out := vars[:0]
	for _, v := range vars {
		bound := true
		for _, row := range rows {
			if _, ok := row[v]; !ok {
				bound = false
				break
			}
		}
		if bound {
			out = append(out, v)
		}
	}
	return out
}

// JoinKey returns the join key of two row sets: the variables both
// sides share that every row of each binds, sorted. It is empty when
// either side is, or when nothing is certainly shared (a product).
func JoinKey(left, right []Binding) []Var {
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	// A certain variable is bound in the first row of each side.
	shared := make([]Var, 0, len(left[0]))
	for v := range left[0] {
		if _, ok := right[0][v]; ok {
			shared = append(shared, v)
		}
	}
	slices.Sort(shared)
	return certain(right, certain(left, shared))
}

// Index is a hash index over one side of a join, built once and then
// probed, by several goroutines at once if need be. Every indexed row
// and every probe row must bind the key (JoinKey computes one that
// does); with an empty key all rows share one bucket and the probe
// computes the product, filtered by Compatible.
type Index struct {
	key     []Var
	buckets map[string][]Binding
}

// NewIndex indexes rows on key. Each row's key is rendered once
// (keyColumn).
func NewIndex(rows []Binding, key []Var) *Index {
	ix := &Index{key: key, buckets: make(map[string][]Binding, len(rows))}
	for i, k := range keyColumn(rows, key) {
		ix.buckets[k] = append(ix.buckets[k], rows[i])
	}
	return ix
}

// bucket returns the indexed rows sharing row's key. The key renders
// into the scratch buffer and the lookup converts it without copying,
// so a probe row that matches nothing allocates nothing.
func (ix *Index) bucket(row Binding, buf *[]byte) []Binding {
	*buf = row.AppendKey((*buf)[:0], ix.key)
	return ix.buckets[string(*buf)]
}

// Join appends to out each probe row merged with every compatible
// indexed row, in probe order.
func (ix *Index) Join(out, probe []Binding) []Binding {
	buf := getKeyBuf()
	defer putKeyBuf(buf)
	for _, row := range probe {
		for _, r := range ix.bucket(row, buf) {
			if row.Compatible(r) {
				out = append(out, row.Merge(r))
			}
		}
	}
	return out
}

// LeftJoin is Join with OPTIONAL semantics: a merged row counts only
// when keep accepts it (nil keeps all), and a probe row left with no
// such match is appended as it is.
func (ix *Index) LeftJoin(out, probe []Binding, keep func(Binding) bool) []Binding {
	buf := getKeyBuf()
	defer putKeyBuf(buf)
	for _, row := range probe {
		matched := false
		for _, r := range ix.bucket(row, buf) {
			if !row.Compatible(r) {
				continue
			}
			if m := row.Merge(r); keep == nil || keep(m) {
				matched = true
				out = append(out, m)
			}
		}
		if !matched {
			out = append(out, row)
		}
	}
	return out
}

// Join returns the SPARQL join of two solution multisets, hashing the
// right side and probing with the left, so rows come out in left order.
func Join(left, right []Binding) []Binding {
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	return NewIndex(right, JoinKey(left, right)).Join(nil, left)
}

// LeftJoin returns the SPARQL left join of two solution multisets:
// keep is the OPTIONAL's condition over each merged row (nil keeps
// all), and a left row with no accepted match survives unextended.
func LeftJoin(left, right []Binding, keep func(Binding) bool) []Binding {
	if len(left) == 0 {
		return nil
	}
	return NewIndex(right, JoinKey(left, right)).LeftJoin(nil, left, keep)
}

// Predicate compiles filters into one row predicate: a row passes when
// every filter is true, and an evaluation error fails it (SPARQL's
// FILTER semantics). exists evaluates FILTER EXISTS and may be nil.
// No filters compile to nil, which every caller reads as "keep all".
func Predicate(filters []Expr, exists ExistsEvaluator) func(Binding) bool {
	if len(filters) == 0 {
		return nil
	}
	return func(b Binding) bool {
		for _, f := range filters {
			if ok, err := EvalBool(f, b, exists); err != nil || !ok {
				return false
			}
		}
		return true
	}
}

// Filter returns the rows keep accepts, in a new slice, leaving rows
// untouched (they may be shared); a nil keep returns rows itself.
func Filter(rows []Binding, keep func(Binding) bool) []Binding {
	if keep == nil {
		return rows
	}
	var out []Binding
	for _, row := range rows {
		if keep(row) {
			out = append(out, row)
		}
	}
	return out
}

// Dedup keeps, in place, the rows whose values over vars seen has not
// recorded yet, and records them. A caller deduplicating a stream holds
// seen across its chunks; a nil seen deduplicates rows on their own.
func Dedup(seen map[string]struct{}, rows []Binding, vars []Var) []Binding {
	if seen == nil {
		seen = make(map[string]struct{}, len(rows))
	}
	out := rows[:0]
	for i, k := range keyColumn(rows, vars) {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, rows[i])
	}
	return out
}

// Bindings returns the block's rows as solutions; UNDEF leaves the
// variable unbound.
func (vb *ValuesBlock) Bindings() []Binding {
	out := make([]Binding, 0, len(vb.Rows))
	for _, row := range vb.Rows {
		b := make(Binding, len(vb.Vars))
		for i, v := range vb.Vars {
			if i < len(row) && !row[i].IsZero() {
				b[v] = row[i]
			}
		}
		out = append(out, b)
	}
	return out
}

// ValuesOf returns a VALUES block over vars holding each distinct tuple
// of the rows' values, in first-seen order: the block a bound join
// ships for a block of rows. Every row must bind vars.
func ValuesOf(rows []Binding, vars []Var) *ValuesBlock {
	vb := &ValuesBlock{Vars: vars}
	for _, row := range Dedup(nil, append([]Binding(nil), rows...), vars) {
		tuple := make([]rdf.Term, len(vars))
		for i, v := range vars {
			tuple[i] = row[v]
		}
		vb.Rows = append(vb.Rows, tuple)
	}
	return vb
}

// EvalGroupOps applies the operators of g that follow its basic graph
// pattern to rows, the pattern's solutions: each VALUES block joins,
// each UNION joins its alternatives' rows, each OPTIONAL left-joins
// with its own filters as the condition, and filters then apply. eval
// evaluates a nested group from the empty solution, its filters
// included; exists evaluates FILTER EXISTS and may be nil.
func EvalGroupOps(rows []Binding, g *GroupGraphPattern, filters []Expr, eval func(*GroupGraphPattern) ([]Binding, error), exists ExistsEvaluator) ([]Binding, error) {
	for _, vb := range g.Values {
		rows = Join(rows, vb.Bindings())
	}
	for _, u := range g.Unions {
		var alt []Binding
		for _, a := range u.Alternatives {
			r, err := eval(a)
			if err != nil {
				return nil, err
			}
			alt = append(alt, r...)
		}
		rows = Join(rows, alt)
	}
	for _, og := range g.Optionals {
		// The OPTIONAL's filters are its left join's condition: they
		// see the merged row, so the body is evaluated without them.
		body := *og
		body.Filters = nil
		right, err := eval(&body)
		if err != nil {
			return nil, err
		}
		rows = LeftJoin(rows, right, Predicate(og.Filters, exists))
	}
	return Filter(rows, Predicate(filters, exists)), nil
}
