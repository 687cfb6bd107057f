package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

func relOf(vars []sparql.Var, rows ...sparql.Binding) *Relation {
	return &Relation{Vars: vars, Rows: rows, Partitions: 1}
}

func b(pairs ...any) sparql.Binding {
	out := sparql.Binding{}
	for i := 0; i < len(pairs); i += 2 {
		out[sparql.Var(pairs[i].(string))] = rdf.IRI("http://ex/" + pairs[i+1].(string))
	}
	return out
}

func TestRelationBasics(t *testing.T) {
	r := relOf([]sparql.Var{"x", "y"}, b("x", "1", "y", "2"))
	if r.Card() != 1 {
		t.Errorf("card = %v", r.Card())
	}
	if !r.HasVar("x") || r.HasVar("z") {
		t.Error("HasVar wrong")
	}
	other := relOf([]sparql.Var{"y", "z"})
	if got := r.SharedVars(other); len(got) != 1 || got[0] != "y" {
		t.Errorf("SharedVars = %v", got)
	}
}

func TestHashJoinBasic(t *testing.T) {
	left := relOf([]sparql.Var{"x", "y"},
		b("x", "a", "y", "1"), b("x", "b", "y", "2"), b("x", "c", "y", "3"))
	right := relOf([]sparql.Var{"y", "z"},
		b("y", "1", "z", "p"), b("y", "1", "z", "q"), b("y", "3", "z", "r"))
	out := HashJoin(left, right, 2)
	if len(out.Rows) != 3 {
		t.Fatalf("rows = %d, want 3: %v", len(out.Rows), out.Rows)
	}
	if !reflect.DeepEqual(out.Vars, []sparql.Var{"x", "y", "z"}) {
		t.Errorf("vars = %v", out.Vars)
	}
	for _, row := range out.Rows {
		if len(row) != 3 {
			t.Errorf("row incomplete: %v", row)
		}
	}
}

func TestHashJoinEmptySides(t *testing.T) {
	left := relOf([]sparql.Var{"x"}, b("x", "a"))
	empty := relOf([]sparql.Var{"x"})
	if out := HashJoin(left, empty, 1); len(out.Rows) != 0 {
		t.Error("join with empty side should be empty")
	}
	if out := HashJoin(empty, left, 1); len(out.Rows) != 0 {
		t.Error("join with empty side should be empty")
	}
}

// Regression: HashJoin used to stamp the requested worker count on the
// output even when the small-probe downgrade ran the join on a single
// partition; JoinCost then divided by a thread count that never ran,
// making every intermediate result look cheaper by ~NumCPU×.
func TestHashJoinPartitionsReflectActualWorkers(t *testing.T) {
	left := relOf([]sparql.Var{"x", "y"},
		b("x", "a", "y", "1"), b("x", "b", "y", "2"))
	right := relOf([]sparql.Var{"y", "z"},
		b("y", "1", "z", "p"), b("y", "2", "z", "q"))
	// Probe side far below the 1024-row parallel threshold: the join
	// runs single-partition no matter how many workers were requested.
	out := HashJoin(left, right, 8)
	if out.Partitions != 1 {
		t.Errorf("small-probe join Partitions = %d, want 1 (the worker count actually used)", out.Partitions)
	}

	// Large probe side: the parallel path runs, and Partitions must
	// match the number of chunks actually spawned.
	bigLeft := &Relation{Vars: []sparql.Var{"x"}}
	bigRight := &Relation{Vars: []sparql.Var{"x"}}
	for i := 0; i < 2048; i++ {
		row := sparql.Binding{"x": rdf.Integer(int64(i))}
		bigLeft.Rows = append(bigLeft.Rows, row)
		bigRight.Rows = append(bigRight.Rows, row)
	}
	out = HashJoin(bigLeft, bigRight, 4)
	if out.Partitions != 4 {
		t.Errorf("large join Partitions = %d, want 4", out.Partitions)
	}
	if len(out.Rows) != 2048 {
		t.Errorf("large join rows = %d, want 2048", len(out.Rows))
	}

	// Empty-side joins never spawn a worker.
	empty := relOf([]sparql.Var{"y"})
	if out := HashJoin(left, empty, 8); out.Partitions != 1 {
		t.Errorf("empty join Partitions = %d, want 1", out.Partitions)
	}

	// JoinCost must therefore see the single partition: with the old
	// inflated count, a small join's cost shrank by the worker count.
	small := HashJoin(left, right, 8)
	if got, want := JoinCost(0, small.Card(), small.Partitions, right.Card(), right.Partitions), small.Card()/1+right.Card()/1; got != want {
		t.Errorf("JoinCost = %v, want %v (no phantom parallelism)", got, want)
	}
}

func TestHashJoinCartesian(t *testing.T) {
	left := relOf([]sparql.Var{"x"}, b("x", "a"), b("x", "b"))
	right := relOf([]sparql.Var{"y"}, b("y", "1"), b("y", "2"), b("y", "3"))
	out := HashJoin(left, right, 4)
	if len(out.Rows) != 6 {
		t.Errorf("cartesian rows = %d, want 6", len(out.Rows))
	}
}

func TestHashJoinParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var lrows, rrows []sparql.Binding
	for i := 0; i < 3000; i++ {
		lrows = append(lrows, b("x", fmt.Sprint(r.Intn(50)), "l", fmt.Sprint(i)))
	}
	for i := 0; i < 2000; i++ {
		rrows = append(rrows, b("x", fmt.Sprint(r.Intn(50)), "r", fmt.Sprint(i)))
	}
	left := &Relation{Vars: []sparql.Var{"x", "l"}, Rows: lrows, Partitions: 1}
	right := &Relation{Vars: []sparql.Var{"x", "r"}, Rows: rrows, Partitions: 1}
	serial := HashJoin(left, right, 1)
	parallel := HashJoin(left, right, 8)
	canon := func(rel *Relation) []string {
		out := make([]string, len(rel.Rows))
		for i, row := range rel.Rows {
			out[i] = row.Key([]sparql.Var{"x", "l", "r"})
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(canon(serial), canon(parallel)) {
		t.Errorf("parallel join differs: %d vs %d rows", len(serial.Rows), len(parallel.Rows))
	}
}

func TestLeftJoinKeepsUnmatched(t *testing.T) {
	left := relOf([]sparql.Var{"x"}, b("x", "a"), b("x", "b"))
	right := relOf([]sparql.Var{"x", "y"}, b("x", "a", "y", "1"))
	out := sparql.LeftJoin(left.Rows, right.Rows, nil)
	if len(out) != 2 {
		t.Fatalf("rows = %d, want 2", len(out))
	}
	matched, unmatched := 0, 0
	for _, row := range out {
		if _, ok := row["y"]; ok {
			matched++
		} else {
			unmatched++
		}
	}
	if matched != 1 || unmatched != 1 {
		t.Errorf("matched=%d unmatched=%d", matched, unmatched)
	}
}

func TestLeftJoinFilter(t *testing.T) {
	left := relOf([]sparql.Var{"x"}, b("x", "a"))
	right := relOf([]sparql.Var{"x", "y"}, b("x", "a", "y", "1"), b("x", "a", "y", "2"))
	// Filter rejecting y=1.
	out := sparql.LeftJoin(left.Rows, right.Rows, func(m sparql.Binding) bool {
		return m["y"] == rdf.IRI("http://ex/2")
	})
	if len(out) != 1 || out[0]["y"] != rdf.IRI("http://ex/2") {
		t.Errorf("rows = %v", out)
	}
	// Filter rejecting everything: the left row must survive bare.
	out = sparql.LeftJoin(left.Rows, right.Rows, func(sparql.Binding) bool { return false })
	if len(out) != 1 {
		t.Fatalf("rows = %v", out)
	}
	if _, ok := out[0]["y"]; ok {
		t.Error("left row should survive without optional bindings")
	}
}

func TestJoinCost(t *testing.T) {
	got := JoinCost(0, 100, 4, 1000, 2)
	want := 100.0/4 + 1000.0/2
	if got != want {
		t.Errorf("JoinCost = %v, want %v", got, want)
	}
	// The prior adds first, in the order the join order search sums.
	if got, want := JoinCost(0.1, 100, 4, 1000, 2), 0.1+100.0/4+1000.0/2; got != want {
		t.Errorf("JoinCost with prior = %v, want %v", got, want)
	}
	// Zero partitions clamp to 1.
	if got := JoinCost(0, 10, 0, 10, 0); got != 10+10 {
		t.Errorf("JoinCost with zero partitions = %v", got)
	}
}

func TestOptimizeJoinOrderPrefersConnected(t *testing.T) {
	// Three relations: A(x), B(x,y), C(z) — C is a cross product and
	// must come last.
	a := relOf([]sparql.Var{"x"}, b("x", "1"))
	bb := relOf([]sparql.Var{"x", "y"}, b("x", "1", "y", "2"))
	c := relOf([]sparql.Var{"z"}, b("z", "9"), b("z", "8"))
	order := OptimizeJoinOrder([]*Relation{c, a, bb})
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	if order[2] != 0 {
		t.Errorf("cross-product relation should fold last: %v", order)
	}
}

func TestOptimizeJoinOrderSmallFirst(t *testing.T) {
	big := &Relation{Vars: []sparql.Var{"x"}, Rows: make([]sparql.Binding, 1000), Partitions: 1}
	small := relOf([]sparql.Var{"x"}, b("x", "1"))
	mid := &Relation{Vars: []sparql.Var{"x"}, Rows: make([]sparql.Binding, 100), Partitions: 1}
	order := OptimizeJoinOrder([]*Relation{big, small, mid})
	// Cost ties between the two small relations are fine; the big
	// relation must fold last so probes dominate the hash build.
	if order[len(order)-1] != 0 {
		t.Errorf("largest relation should fold last: %v", order)
	}
}

func TestOptimizeJoinOrderSingleAndEmpty(t *testing.T) {
	if got := OptimizeJoinOrder(nil); len(got) != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := OptimizeJoinOrder([]*Relation{relOf([]sparql.Var{"x"})}); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("single = %v", got)
	}
}

func TestGreedyOrderBeyondDPLimit(t *testing.T) {
	// 14 relations exceed the DP limit; the greedy path must still
	// produce a complete permutation.
	var rels []*Relation
	for i := 0; i < 14; i++ {
		rels = append(rels, relOf([]sparql.Var{sparql.Var(fmt.Sprintf("v%d", i)), "shared"},
			b("shared", "s")))
	}
	order := OptimizeJoinOrder(rels)
	if len(order) != 14 {
		t.Fatalf("order len = %d", len(order))
	}
	seen := map[int]bool{}
	for _, i := range order {
		if seen[i] {
			t.Fatalf("duplicate index %d in %v", i, order)
		}
		seen[i] = true
	}
}

// TestQuickJoinOrderPreservesResult: any join order yields the same
// multiset, so the optimizer can pick freely.
func TestQuickJoinOrderPreservesResult(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nRels := 2 + r.Intn(3)
		rels := make([]*Relation, nRels)
		vars := []sparql.Var{"a", "b", "c"}
		for i := range rels {
			v1, v2 := vars[r.Intn(3)], vars[r.Intn(3)]
			rel := &Relation{Vars: mergeVarsUnique([]sparql.Var{v1}, []sparql.Var{v2}), Partitions: 1}
			for k := 0; k < 1+r.Intn(5); k++ {
				row := sparql.Binding{}
				row[v1] = rdf.Integer(int64(r.Intn(3)))
				row[v2] = rdf.Integer(int64(r.Intn(3)))
				rel.Rows = append(rel.Rows, row)
			}
			rels[i] = rel
		}
		// Reference: fold in input order.
		ref := rels[0]
		for _, rel := range rels[1:] {
			ref = HashJoin(ref, rel, 1)
		}
		// Optimized order.
		ex := NewExecutor(nil)
		opt := ex.joinAll(nil, rels)
		canon := func(rel *Relation) []string {
			out := make([]string, len(rel.Rows))
			for i, row := range rel.Rows {
				out[i] = row.Key(vars)
			}
			sort.Strings(out)
			return out
		}
		return reflect.DeepEqual(canon(ref), canon(opt))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
