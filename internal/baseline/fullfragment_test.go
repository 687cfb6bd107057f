package baseline_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lusail/internal/baseline/fedx"
	"lusail/internal/baseline/hibiscus"
	"lusail/internal/baseline/splendid"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/engine"
	"lusail/internal/federation"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

// TestQuickFullFragmentAllEngines is the repository's broadest
// correctness property: randomized federations and randomized queries
// over the full supported fragment, across every engine and Lusail
// configuration, must match the union-graph oracle exactly.
func TestQuickFullFragmentAllEngines(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		locals := testfed.RandomFederation(r)
		eps := make([]endpoint.Endpoint, len(locals))
		for i := range locals {
			eps[i] = locals[i]
		}
		query := testfed.RandomFullQuery(r)
		parsed, err := sparql.Parse(query)
		if err != nil {
			t.Logf("seed %d: generator produced invalid query: %v\n%s", seed, err, query)
			return false
		}
		want, err := engine.New(testfed.UnionStore(locals...)).Eval(parsed)
		if err != nil {
			t.Logf("seed %d oracle: %v", seed, err)
			return false
		}
		cw := testfed.Canon(want)

		idx, err := splendid.BuildIndex(eps)
		if err != nil {
			return false
		}
		sum, err := hibiscus.BuildSummary(eps)
		if err != nil {
			return false
		}
		engines := []federation.Engine{
			core.New(eps, core.Config{}),
			core.New(eps, core.Config{DelayPolicy: core.DelayAll}),
			core.New(eps, core.Config{AssumeAllGlobal: true, DelayPolicy: core.DelayNone}),
			fedx.New(eps, fedx.Config{BoundBlockSize: 4}),
			splendid.New(eps, idx, splendid.Config{BindBlockSize: 3}),
			hibiscus.New(eps, sum, fedx.Config{}),
			federation.NewNaive(eps, nil),
		}
		for i, eng := range engines {
			got, err := eng.Execute(context.Background(), query)
			if err != nil {
				t.Logf("seed %d engine %d (%s): %v\n%s", seed, i, eng.Name(), err, query)
				return false
			}
			if cg := testfed.Canon(got); !reflect.DeepEqual(cg, cw) {
				t.Logf("seed %d engine %d (%s) mismatch (%d vs %d rows)\n%s",
					seed, i, eng.Name(), len(cg), len(cw), query)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
