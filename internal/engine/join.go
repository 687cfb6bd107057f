package engine

import (
	"sync"

	"lusail/internal/sparql"
)

// certainVars returns the variables bound in every row.
func certainVars(rows []sparql.Binding) map[sparql.Var]bool {
	out := map[sparql.Var]bool{}
	if len(rows) == 0 {
		return out
	}
	for v := range rows[0] {
		out[v] = true
	}
	for _, row := range rows[1:] {
		for v := range out {
			if _, ok := row[v]; !ok {
				delete(out, v)
			}
		}
		if len(out) == 0 {
			break
		}
	}
	return out
}

// sharedCertainVars computes the hash-join key variables for two row
// sets: variables certainly bound on both sides.
func sharedCertainVars(left, right []sparql.Binding) []sparql.Var {
	lv := certainVars(left)
	rv := certainVars(right)
	var out []sparql.Var
	for v := range lv {
		if rv[v] {
			out = append(out, v)
		}
	}
	return out
}

// joinRows computes the SPARQL join of two solution multisets with a
// hash join on the shared certainly-bound variables; compatibility of
// the remaining (possibly unbound) variables is re-checked per pair.
func joinRows(left, right []sparql.Binding) []sparql.Binding {
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	key := sharedCertainVars(left, right)
	if len(key) == 0 {
		// No guaranteed join variables: nested loop with the full
		// compatibility check (covers cartesian products and rows with
		// optional variables).
		var out []sparql.Binding
		for _, l := range left {
			for _, r := range right {
				if l.Compatible(r) {
					out = append(out, l.Merge(r))
				}
			}
		}
		return out
	}
	// Build on the smaller side.
	build, probe := right, left
	swapped := false
	if len(left) < len(right) {
		build, probe = left, right
		swapped = true
	}
	// Build keys are rendered once up front; probe keys are rendered
	// into a pooled scratch buffer and probed allocation-free.
	idx := make(map[string][]sparql.Binding, len(build))
	for i, k := range sparql.KeyColumn(build, key) {
		idx[k] = append(idx[k], build[i])
	}
	var out []sparql.Binding
	scratch := sparql.GetKeyBuf()
	defer sparql.PutKeyBuf(scratch)
	for _, pr := range probe {
		*scratch = pr.AppendKey((*scratch)[:0], key)
		for _, b := range idx[string(*scratch)] {
			l, r := pr, b
			if swapped {
				l, r = b, pr
			}
			if l.Compatible(r) {
				out = append(out, l.Merge(r))
			}
		}
	}
	return out
}

// SymmetricJoin is a progressive (pipelined) hash join: rows pushed on
// either side are immediately probed against the rows accumulated on
// the other side, so matches emit as soon as both halves have arrived
// instead of after one side fully materializes. It is the streaming
// executor's replacement for the materialized-relation barrier: the
// already-joined accumulator is pushed once as the left side, then
// each arriving chunk of the streamed relation probes through
// PushRight and its matches flow straight to the client.
//
// Key semantics mirror core.HashJoin: the join key is the set of
// header variables shared by the two sides, assumed bound in every
// pushed row (subquery relations always bind their full header);
// residual compatibility of any remaining shared variables is
// re-checked per candidate pair. With no shared variables every row
// lands in one bucket and the compatibility check computes the
// product.
//
// All methods are safe for concurrent use, so chunk producers for the
// two inputs may push from independent goroutines.
type SymmetricJoin struct {
	mu    sync.Mutex
	key   []sparql.Var
	left  joinSide
	right joinSide
}

// joinSide is one input's accumulated hash state.
type joinSide struct {
	idx  map[string][]sparql.Binding
	done bool
}

// NewSymmetricJoin builds a symmetric join over the two sides' header
// variables.
func NewSymmetricJoin(leftVars, rightVars []sparql.Var) *SymmetricJoin {
	var key []sparql.Var
	set := map[sparql.Var]bool{}
	for _, v := range leftVars {
		set[v] = true
	}
	for _, v := range rightVars {
		if set[v] {
			key = append(key, v)
		}
	}
	return &SymmetricJoin{
		key:   key,
		left:  joinSide{idx: map[string][]sparql.Binding{}},
		right: joinSide{idx: map[string][]sparql.Binding{}},
	}
}

// PushLeft probes rows against the accumulated right side and returns
// the merged matches; the rows are also retained for future right
// pushes.
func (j *SymmetricJoin) PushLeft(rows []sparql.Binding) []sparql.Binding {
	return j.push(rows, false)
}

// PushRight is PushLeft mirrored.
func (j *SymmetricJoin) PushRight(rows []sparql.Binding) []sparql.Binding {
	return j.push(rows, true)
}

// CloseLeft declares the left input complete. Subsequent right pushes
// stop inserting into the right-side table and become pure probes:
// with the build side frozen, a non-matching probe row costs zero
// allocations (the key renders into a pooled scratch buffer), which
// is what keeps per-chunk probing as cheap as the one-shot HashJoin
// it replaces.
func (j *SymmetricJoin) CloseLeft() {
	j.mu.Lock()
	j.left.done = true
	j.mu.Unlock()
}

// push probes rows against the opposite side's table, retains them on
// their own side while the opposite input may still grow, and returns
// the merged matches in left-Merge-right orientation.
func (j *SymmetricJoin) push(rows []sparql.Binding, fromRight bool) []sparql.Binding {
	j.mu.Lock()
	defer j.mu.Unlock()
	own, other := &j.left, &j.right
	if fromRight {
		own, other = &j.right, &j.left
	}
	var out []sparql.Binding
	scratch := sparql.GetKeyBuf()
	defer sparql.PutKeyBuf(scratch)
	for _, row := range rows {
		*scratch = row.AppendKey((*scratch)[:0], j.key)
		for _, m := range other.idx[string(*scratch)] {
			l, r := row, m
			if fromRight {
				l, r = m, row
			}
			if l.Compatible(r) {
				out = append(out, l.Merge(r))
			}
		}
		if !other.done {
			k := string(*scratch)
			own.idx[k] = append(own.idx[k], row)
		}
	}
	return out
}
