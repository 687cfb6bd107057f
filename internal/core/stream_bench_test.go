package core

import (
	"context"
	"testing"
	"time"

	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

// BenchmarkStreamFirstRow measures the pipelined executor's
// time-to-first-chunk against its total latency on a two-phase query
// (QaChain delays a subquery, so the tail streams while bound blocks
// are still in flight). The custom first-row-ns/op metric is gated by
// lusail-benchcmp alongside ns/op.
func BenchmarkStreamFirstRow(b *testing.B) {
	l, _ := newUniLusail(Config{})
	// Warm the analysis caches so the loop measures execution.
	if _, err := l.Execute(context.Background(), testfed.QaChain); err != nil {
		b.Fatal(err)
	}
	var firstTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		first := time.Duration(0)
		_, _, _, err := l.ExecuteStreamTraced(context.Background(), testfed.QaChain,
			func(vars []sparql.Var, rows []sparql.Binding) error {
				if first == 0 {
					first = time.Since(start)
				}
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		firstTotal += first
	}
	b.ReportMetric(float64(firstTotal.Nanoseconds())/float64(b.N), "first-row-ns/op")
}
