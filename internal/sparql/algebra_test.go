package sparql

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"lusail/internal/rdf"
)

func bnd(pairs ...string) Binding {
	out := Binding{}
	for i := 0; i < len(pairs); i += 2 {
		out[Var(pairs[i])] = rdf.IRI("http://ex/" + pairs[i+1])
	}
	return out
}

// canonRows renders rows over vars, sorted: a multiset comparison.
func canonRows(rows []Binding, vars ...Var) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = row.Key(vars)
	}
	sort.Strings(out)
	return out
}

// keyedRows builds n rows binding k to prefix<i%mod> and extra to a
// per-row literal.
func keyedRows(k, extra Var, prefix string, n, mod int) []Binding {
	out := make([]Binding, n)
	for i := range out {
		out[i] = Binding{
			k:     rdf.IRI(fmt.Sprintf("http://ex/%s%d", prefix, i%mod)),
			extra: rdf.Literal(fmt.Sprintf("%s-%d", prefix, i)),
		}
	}
	return out
}

func TestCertainVars(t *testing.T) {
	rows := []Binding{
		bnd("x", "1", "y", "2"),
		bnd("x", "3"), // y missing here
	}
	vars := []Var{"y", "x", "z"}
	if got := CertainVars(rows, vars); !reflect.DeepEqual(got, []Var{"x"}) {
		t.Errorf("CertainVars = %v", got)
	}
	if !reflect.DeepEqual(vars, []Var{"y", "x", "z"}) {
		t.Errorf("CertainVars rewrote its argument: %v", vars)
	}
}

func TestJoinKey(t *testing.T) {
	left := []Binding{bnd("x", "1", "y", "2", "w", "3")}
	right := []Binding{bnd("y", "2", "z", "3", "x", "1")}
	if got := JoinKey(left, right); !reflect.DeepEqual(got, []Var{"x", "y"}) {
		t.Errorf("key = %v", got)
	}
	// A shared variable one right row leaves unbound is not key.
	right = append(right, bnd("y", "5"))
	if got := JoinKey(left, right); !reflect.DeepEqual(got, []Var{"y"}) {
		t.Errorf("key = %v", got)
	}
	if JoinKey(nil, right) != nil || JoinKey(left, nil) != nil {
		t.Error("an empty side has no key")
	}
}

func TestJoin(t *testing.T) {
	left := []Binding{bnd("x", "a", "y", "1"), bnd("x", "b", "y", "2")}
	right := []Binding{bnd("y", "1", "z", "p"), bnd("y", "1", "z", "q")}
	out := Join(left, right)
	if len(out) != 2 {
		t.Fatalf("join rows = %d: %v", len(out), out)
	}
	for _, row := range out {
		if row["x"] != rdf.IRI("http://ex/a") {
			t.Errorf("row = %v", row)
		}
	}
	if Join(nil, right) != nil || Join(left, nil) != nil {
		t.Error("join with empty side should be nil")
	}
}

// TestJoinPartiallyBoundSharedVar: ?w is shared, but one right row
// (a UNION alternative) leaves it unbound. That row must join on ?x
// alone, and the row binding ?w must still agree on it.
func TestJoinPartiallyBoundSharedVar(t *testing.T) {
	left := []Binding{bnd("x", "1", "w", "a")}
	right := []Binding{
		bnd("x", "1", "z", "z1"), // ?w unbound: compatible
		bnd("x", "1", "w", "a"),  // agrees on ?w
		bnd("x", "1", "w", "b"),  // disagrees on ?w
	}
	got := canonRows(Join(left, right), "x", "w", "z")
	want := canonRows([]Binding{
		bnd("x", "1", "w", "a", "z", "z1"),
		bnd("x", "1", "w", "a"),
	}, "x", "w", "z")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("join = %v, want %v", got, want)
	}
	// The same rows on the left side of a left join: the row leaving
	// ?w unbound picks it up from the right.
	opt := []Binding{bnd("x", "1", "w", "a")}
	got = canonRows(LeftJoin(right, opt, nil), "x", "w", "z")
	want = canonRows([]Binding{
		bnd("x", "1", "w", "a", "z", "z1"),
		bnd("x", "1", "w", "a"),
		bnd("x", "1", "w", "b"),
	}, "x", "w", "z")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("left join = %v, want %v", got, want)
	}
}

// TestJoinEmptyKeyProduct: with nothing certainly shared every row
// lands in one bucket, and the probe computes the product.
func TestJoinEmptyKeyProduct(t *testing.T) {
	left := []Binding{bnd("x", "1"), bnd("x", "2")}
	right := []Binding{bnd("y", "a"), bnd("y", "b"), bnd("y", "c")}
	out := Join(left, right)
	if len(out) != 6 {
		t.Fatalf("product rows = %d, want 6", len(out))
	}
	// Left order is kept: each left row's matches come together.
	for i, row := range out {
		if want := left[i/3]["x"]; row["x"] != want {
			t.Errorf("row %d = %v, want x = %v", i, row, want)
		}
	}
}

func TestLeftJoin(t *testing.T) {
	left := []Binding{bnd("x", "a"), bnd("x", "b")}
	right := []Binding{bnd("x", "a", "y", "1")}
	out := LeftJoin(left, right, nil)
	if len(out) != 2 {
		t.Fatalf("rows = %v", out)
	}
	// With a rejecting condition, left rows survive bare.
	q := MustParse(`SELECT * WHERE { ?a ?b ?c . FILTER (?y = <http://ex/nope>) }`)
	out = LeftJoin(left, right, Predicate(q.Where.Filters, nil))
	if len(out) != 2 {
		t.Fatalf("rows = %v", out)
	}
	for _, row := range out {
		if _, ok := row["y"]; ok {
			t.Errorf("filter should have rejected the match: %v", row)
		}
	}
	if got := LeftJoin(left, nil, nil); len(got) != 2 {
		t.Errorf("left join with an empty right side = %v", got)
	}
}

func TestPredicateAndFilter(t *testing.T) {
	if Predicate(nil, nil) != nil {
		t.Error("no filters should compile to nil")
	}
	q := MustParse(`SELECT * WHERE { ?a ?b ?c . FILTER (?x != <http://ex/b>) FILTER (?y = <http://ex/1>) }`)
	keep := Predicate(q.Where.Filters, nil)
	rows := []Binding{
		bnd("x", "a", "y", "1"),
		bnd("x", "b", "y", "1"), // first filter false
		bnd("x", "c"),           // ?y unbound: an error fails the row
	}
	got := Filter(rows, keep)
	if len(got) != 1 || got[0]["x"] != rdf.IRI("http://ex/a") {
		t.Errorf("filtered = %v", got)
	}
	if len(rows) != 3 || rows[1]["x"] != rdf.IRI("http://ex/b") {
		t.Error("Filter rewrote its input")
	}
	if got := Filter(rows, nil); len(got) != 3 {
		t.Errorf("nil predicate kept %d of 3 rows", len(got))
	}
}

func TestDedup(t *testing.T) {
	rows := []Binding{bnd("x", "a"), bnd("x", "a"), bnd("x", "b")}
	seen := map[string]struct{}{}
	out := Dedup(seen, rows, []Var{"x"})
	if len(out) != 2 {
		t.Errorf("dedup rows = %v", out)
	}
	// The seen-set carries across calls: a later chunk repeating a
	// key keeps nothing.
	if out := Dedup(seen, []Binding{bnd("x", "b"), bnd("x", "c")}, []Var{"x"}); len(out) != 1 {
		t.Errorf("second chunk = %v", out)
	}
	if out := Dedup(nil, []Binding{bnd("x", "a"), bnd("x", "a")}, []Var{"x"}); len(out) != 1 {
		t.Errorf("dedup with a fresh set = %v", out)
	}
}

func TestValuesOf(t *testing.T) {
	rows := []Binding{
		bnd("x", "a", "y", "1"),
		bnd("x", "b", "y", "2"),
		bnd("x", "a", "y", "3"), // repeats x = a
	}
	vb := ValuesOf(rows, []Var{"x"})
	want := [][]rdf.Term{{rdf.IRI("http://ex/a")}, {rdf.IRI("http://ex/b")}}
	if !reflect.DeepEqual(vb.Vars, []Var{"x"}) || !reflect.DeepEqual(vb.Rows, want) {
		t.Errorf("block = %v %v", vb.Vars, vb.Rows)
	}
	if len(rows) != 3 || rows[2]["y"] != rdf.IRI("http://ex/3") {
		t.Error("ValuesOf rewrote its input")
	}
}

func TestValuesBlockBindings(t *testing.T) {
	vb := &ValuesBlock{
		Vars: []Var{"x", "y"},
		Rows: [][]rdf.Term{
			{rdf.IRI("http://ex/1"), rdf.IRI("http://ex/2")},
			{{}, rdf.IRI("http://ex/3")}, // UNDEF x
		},
	}
	rows := vb.Bindings()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if _, ok := rows[1]["x"]; ok {
		t.Error("UNDEF should leave the variable unbound")
	}
	if rows[1]["y"] != rdf.IRI("http://ex/3") {
		t.Errorf("row 1 = %v", rows[1])
	}
}

// TestIndexProbeInChunksMatchesJoin: an index built once and probed in
// chunks, the way a streamed relation probes the folded one, yields
// the one-shot join's multiset.
func TestIndexProbeInChunksMatchesJoin(t *testing.T) {
	build := keyedRows("s", "l", "s", 40, 10)
	probe := keyedRows("s", "r", "s", 30, 15)
	want := Join(probe, build)
	ix := NewIndex(build, JoinKey(build, probe))
	var got []Binding
	for lo := 0; lo < len(probe); lo += 7 {
		got = ix.Join(got, probe[lo:min(lo+7, len(probe))])
	}
	if len(want) == 0 || !reflect.DeepEqual(canonRows(got, "s", "l", "r"), canonRows(want, "s", "l", "r")) {
		t.Errorf("chunked probe gave %d rows, one-shot join %d", len(got), len(want))
	}
}

// TestIndexProbeConcurrent: goroutines probing one index at once (the
// parallel hash join's workers) each get the serial answer.
func TestIndexProbeConcurrent(t *testing.T) {
	build := keyedRows("s", "l", "s", 64, 16)
	probe := keyedRows("s", "r", "s", 256, 32)
	ix := NewIndex(build, []Var{"s"})
	want := canonRows(ix.Join(nil, probe), "s", "l", "r")
	var wg sync.WaitGroup
	got := make([][]string, 4)
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = canonRows(ix.Join(nil, probe), "s", "l", "r")
		}()
	}
	wg.Wait()
	for w, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Errorf("worker %d: %d rows, want %d", w, len(g), len(want))
		}
	}
}

// TestIndexProbeNonMatchingAllocatesNothing: a probe row whose key is
// in no bucket costs no allocation, inner or left (the left probe
// appends the row itself into the caller's capacity). This keeps
// probing per streamed chunk as cheap as one whole join.
func TestIndexProbeNonMatchingAllocatesNothing(t *testing.T) {
	ix := NewIndex(keyedRows("s", "l", "build", 64, 64), []Var{"s"})
	probe := keyedRows("s", "r", "miss", 8, 8) // distinct prefix: no matches
	if got := testing.AllocsPerRun(100, func() {
		ix.Join(nil, probe)
	}); got != 0 {
		t.Errorf("non-matching inner probe allocations = %v, want 0", got)
	}
	out := make([]Binding, 0, len(probe))
	if got := testing.AllocsPerRun(100, func() {
		ix.LeftJoin(out[:0], probe, nil)
	}); got != 0 {
		t.Errorf("non-matching left probe allocations = %v, want 0", got)
	}
}
