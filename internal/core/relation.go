package core

import (
	"runtime"
	"sync"

	"lusail/internal/sparql"
)

// Relation is a materialized subquery result at the federator: a set
// of solution rows plus the number of endpoint partitions that
// produced it (the paper's per-thread partitioning, used by the join
// cost model).
type Relation struct {
	Vars       []sparql.Var
	Rows       []sparql.Binding
	Partitions int
	// Optional relations are left-joined rather than joined.
	Optional      bool
	OptionalGroup int
	// Dropped records the contributions a degraded execution gave up on
	// while materializing this relation. It travels with the relation
	// through the subquery cache, so a query reusing a degraded
	// cached result inherits its completeness annotations.
	Dropped []sparql.Dropped
}

// Card returns the true cardinality.
func (r *Relation) Card() float64 { return float64(len(r.Rows)) }

// HasVar reports whether the relation binds v (in its header).
func (r *Relation) HasVar(v sparql.Var) bool {
	for _, x := range r.Vars {
		if x == v {
			return true
		}
	}
	return false
}

// SharedVars returns the header variables shared with other.
func (r *Relation) SharedVars(other *Relation) []sparql.Var {
	var out []sparql.Var
	for _, v := range r.Vars {
		if other.HasVar(v) {
			out = append(out, v)
		}
	}
	return out
}

// mergeVarsUnique unions two variable lists.
func mergeVarsUnique(a, b []sparql.Var) []sparql.Var {
	seen := map[sparql.Var]bool{}
	var out []sparql.Var
	for _, v := range a {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range b {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// JoinCost is the paper's cost for joining subplan S with relation R
// (§V-B), added to prior, the cost of producing both: hashing the
// smaller side's sCard rows across its sParts partitions plus probing
// with R's rCard rows across its rParts partitions. A partition count
// below 1 counts as 1.
func JoinCost(prior, sCard float64, sParts int, rCard float64, rParts int) float64 {
	return prior + sCard/float64(max(sParts, 1)) + rCard/float64(max(rParts, 1))
}

// HashJoin joins two relations in parallel: the smaller side is
// indexed once (sparql.Index, on the sparql.JoinKey rule), and the
// larger side's probe is partitioned across workers (inter-operator
// parallelism in the paper's join evaluation). The probe loop
// allocates only for actual output rows.
func HashJoin(a, b *Relation, workers int) *Relation {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// Build on the smaller side.
	build, probe := a, b
	if len(b.Rows) < len(a.Rows) {
		build, probe = b, a
	}
	out := &Relation{
		Vars:       mergeVarsUnique(a.Vars, b.Vars),
		Partitions: 1,
	}
	if len(a.Rows) == 0 || len(b.Rows) == 0 {
		return out
	}
	idx := sparql.NewIndex(build.Rows, sparql.JoinKey(build.Rows, probe.Rows))
	// Partition the probe side across workers; small probes are not
	// worth the goroutine fan-out.
	if len(probe.Rows) < 1024 {
		workers = 1
	}
	chunk := (len(probe.Rows) + workers - 1) / workers
	results := make([][]sparql.Binding, workers)
	var wg sync.WaitGroup
	spawned := 0
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(probe.Rows) {
			break
		}
		hi := lo + chunk
		if hi > len(probe.Rows) {
			hi = len(probe.Rows)
		}
		spawned++
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			results[w] = idx.Join(nil, probe.Rows[lo:hi])
		}(w, lo, hi)
	}
	wg.Wait()
	// Stamp the parallelism actually used, not the requested worker
	// count: the small-probe downgrade (and ceil-division rounding) can
	// run fewer partitions, and downstream JoinCost divides by this
	// value — an inflated count makes later joins look cheaper than
	// they are.
	out.Partitions = spawned
	if out.Partitions < 1 {
		out.Partitions = 1
	}
	for _, part := range results {
		out.Rows = append(out.Rows, part...)
	}
	return out
}

// joinPlan is one node of the bushy join tree OptimizeJoinOrder's
// dynamic programming over subsets builds (the Moerkotte/Neumann
// DPsize flavor the paper cites), minimizing accumulated JoinCost and
// preferring joins that keep intermediate cardinalities small: a leaf
// holds a relation, an inner node joins its two subtrees.
// OptimizeJoinOrder flattens the best tree's leaves, left to right,
// into a left-deep fold order.
type joinPlan struct {
	rel  *Relation // leaf
	left *joinPlan
	rght *joinPlan
	cost float64
	card float64
	part int
	vars []sparql.Var
}

func leafPlan(r *Relation) *joinPlan {
	return &joinPlan{rel: r, card: r.Card(), part: r.Partitions, vars: r.Vars}
}

func sharesVar(a, b *joinPlan) bool {
	set := map[sparql.Var]bool{}
	for _, v := range a.vars {
		set[v] = true
	}
	for _, v := range b.vars {
		if set[v] {
			return true
		}
	}
	return false
}

func combine(a, b *joinPlan) *joinPlan {
	// Estimated output cardinality: bounded by the smaller side for
	// key-ish joins; cross products multiply.
	var card float64
	if sharesVar(a, b) {
		card = a.card
		if b.card < card {
			card = b.card
		}
	} else {
		card = a.card * b.card
	}
	sa, sb := a, b
	if sb.card < sa.card {
		sa, sb = sb, sa
	}
	cost := JoinCost(a.cost+b.cost, sa.card, sa.part, sb.card, sb.part)
	if !sharesVar(a, b) {
		cost += card // penalize cross products
	}
	part := a.part
	if b.part > part {
		part = b.part
	}
	return &joinPlan{
		left: a, rght: b,
		cost: cost, card: card, part: part,
		vars: mergeVarsUnique(a.vars, b.vars),
	}
}

// OptimizeJoinOrder returns the relations' indexes in the order they
// should be folded left-to-right. For <= 1 relation it is trivial; up
// to dpLimit relations it uses subset DP; beyond that it falls back to
// a greedy smallest-first order.
func OptimizeJoinOrder(rels []*Relation) []int {
	n := len(rels)
	if n <= 1 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	const dpLimit = 12
	if n > dpLimit {
		return greedyOrder(rels)
	}
	// DP over subsets; plans[mask] is the best plan joining exactly
	// the relations in mask.
	plans := make([]*joinPlan, 1<<n)
	for i := 0; i < n; i++ {
		plans[1<<i] = leafPlan(rels[i])
	}
	for mask := 1; mask < 1<<n; mask++ {
		if plans[mask] != nil {
			continue
		}
		// Enumerate proper subset splits.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask &^ sub
			if plans[sub] == nil || plans[other] == nil {
				continue
			}
			cand := combine(plans[sub], plans[other])
			if plans[mask] == nil || cand.cost < plans[mask].cost {
				plans[mask] = cand
			}
		}
	}
	best := plans[(1<<n)-1]
	var order []int
	var walk func(p *joinPlan)
	walk = func(p *joinPlan) {
		if p == nil {
			return
		}
		if p.rel != nil {
			for i, r := range rels {
				if r == p.rel && !contains(order, i) {
					order = append(order, i)
					return
				}
			}
			return
		}
		walk(p.left)
		walk(p.rght)
	}
	walk(best)
	return order
}

func contains(a []int, x int) bool {
	for _, v := range a {
		if v == x {
			return true
		}
	}
	return false
}

// greedyOrder starts from the smallest relation and repeatedly joins
// the connected relation with the smallest cardinality.
func greedyOrder(rels []*Relation) []int {
	n := len(rels)
	used := make([]bool, n)
	order := make([]int, 0, n)
	// Start with the smallest.
	best := 0
	for i := 1; i < n; i++ {
		if len(rels[i].Rows) < len(rels[best].Rows) {
			best = i
		}
	}
	order = append(order, best)
	used[best] = true
	vars := map[sparql.Var]bool{}
	for _, v := range rels[best].Vars {
		vars[v] = true
	}
	for len(order) < n {
		cand := -1
		candConn := false
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			conn := false
			for _, v := range rels[i].Vars {
				if vars[v] {
					conn = true
					break
				}
			}
			if cand < 0 ||
				(conn && !candConn) ||
				(conn == candConn && len(rels[i].Rows) < len(rels[cand].Rows)) {
				cand, candConn = i, conn
			}
		}
		order = append(order, cand)
		used[cand] = true
		for _, v := range rels[cand].Vars {
			vars[v] = true
		}
	}
	return order
}
