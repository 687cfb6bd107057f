package core

import (
	"fmt"
	"testing"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// benchRelation builds n rows binding ?x to iri(prefix + i % mod) and
// ?payload to a literal, so join selectivity is controlled by mod.
func benchRelation(n, mod int, prefix string) *Relation {
	rows := make([]sparql.Binding, n)
	for i := range rows {
		rows[i] = sparql.Binding{
			"x":       rdf.IRI(fmt.Sprintf("http://ex/%s%d", prefix, i%mod)),
			"payload": rdf.Literal(fmt.Sprintf("row-%d", i)),
		}
	}
	return &Relation{Vars: []sparql.Var{"x", "payload"}, Rows: rows, Partitions: 1}
}

// joinSides returns a 10k-row probe side and a 1k-row build side that
// share key space, the shape of a phase-2 bound join at the federator.
func joinSides() (*Relation, *Relation) {
	probe := benchRelation(10_000, 1_000, "k")
	build := &Relation{Vars: []sparql.Var{"x", "extra"}, Partitions: 1}
	for i := 0; i < 1_000; i++ {
		build.Rows = append(build.Rows, sparql.Binding{
			"x":     rdf.IRI(fmt.Sprintf("http://ex/k%d", i)),
			"extra": rdf.Literal(fmt.Sprintf("e-%d", i)),
		})
	}
	return probe, build
}

func BenchmarkHashJoin10k(b *testing.B) {
	probe, build := joinSides()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := HashJoin(probe, build, 4)
		if len(out.Rows) != 10_000 {
			b.Fatalf("rows = %d, want 10000", len(out.Rows))
		}
	}
}

func BenchmarkHashJoin10kSerial(b *testing.B) {
	probe, build := joinSides()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashJoin(probe, build, 1)
	}
}

func BenchmarkLeftJoin10k(b *testing.B) {
	probe, build := joinSides()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := sparql.LeftJoin(probe.Rows, build.Rows, nil)
		if len(out) != 10_000 {
			b.Fatalf("rows = %d, want 10000", len(out))
		}
	}
}

// The probe loop must not allocate per probe row: with a disjoint key
// space (no matches, so no output-row Merge allocations) a 10k-row
// probe against a small build side has only the fixed build-side and
// bookkeeping costs. The old code rendered a key string per probe row
// (>= 10k allocations per join); the pooled-scratch probe does not,
// and this guards against that regressing.
func TestHashJoinProbeAllocationFree(t *testing.T) {
	probe := benchRelation(10_000, 1_000, "probe") // keys http://ex/probeN
	build := benchRelation(64, 64, "build")        // keys http://ex/buildN: disjoint
	// Warm the scratch-buffer pool so the steady state is measured.
	HashJoin(probe, build, 1)
	allocs := testing.AllocsPerRun(5, func() {
		out := HashJoin(probe, build, 1)
		if len(out.Rows) != 0 {
			t.Fatalf("rows = %d, want 0 (disjoint keys)", len(out.Rows))
		}
	})
	// Fixed costs: output relation + header, build index map and its
	// key arena, per-key bucket slices (64), worker bookkeeping.
	// Per-probe-row key rendering would add >= 10k on its own.
	if allocs > 1_000 {
		t.Fatalf("HashJoin allocated %.0f times for a 10k-row probe; "+
			"probe loop is no longer allocation-free", allocs)
	}
}

// Same guard for the LeftJoin probe loop. Every left row produces an
// output row under OPTIONAL semantics, so the bound is per-row output
// allocations (slice growth) plus fixed costs — but NOT two rendered
// key strings per row as before.
func TestLeftJoinKeyAllocationBound(t *testing.T) {
	left := benchRelation(10_000, 1_000, "probe")
	right := benchRelation(64, 64, "build") // disjoint: all rows pass through
	sparql.LeftJoin(left.Rows, right.Rows, nil)
	allocs := testing.AllocsPerRun(5, func() {
		out := sparql.LeftJoin(left.Rows, right.Rows, nil)
		if len(out) != 10_000 {
			t.Fatalf("rows = %d, want 10000", len(out))
		}
	})
	// Output append growth is ~log(n) reallocations; key rendering per
	// left row would be >= 10k allocations.
	if allocs > 1_000 {
		t.Fatalf("LeftJoin allocated %.0f times for 10k left rows; "+
			"probe keys are being rendered per row again", allocs)
	}
}
