package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"lusail/internal/benchdata/lubm"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

// Chaos is the deterministic chaos soak: a seeded schedule of data
// churn (tick-triggered delete/insert batches, each bumping the
// endpoint's data version) composed with fault injection (transient
// errors, probabilistic hangs, a flapping endpoint, a request-size
// cap) runs against a 4-endpoint LUBM federation for chaosQueries
// queries. After every query, both Execute and ExecuteStream are
// checked for multiset equivalence against a fresh no-cache oracle
// evaluated at the same data version — any surviving stale row is a
// hard failure.
//
// The soak runs twice with the same seed: once with the fence probing
// every endpoint's data version at every query (the invariant: zero
// stale rows), and once version-blind — the same engine over endpoints
// that hide their data version, so the fence treats them as
// unversioned and churn goes unseen (the control: the same schedule
// must produce stale rows, proving the oracle check actually detects
// staleness when the fence cannot see).
func Chaos(w io.Writer, opts Options) error {
	header(w, "chaos", "deterministic churn+fault soak with staleness oracle (LUBM, 4 endpoints)")

	const seed = 1789
	enforce, err := chaosPass(w, opts, "enforce", false, seed)
	if err != nil {
		return err
	}
	blind, err := chaosPass(w, opts, "blind", true, seed)
	if err != nil {
		return err
	}

	fmt.Fprintln(w)
	if n := enforce.staleExec + enforce.staleStream; n > 0 {
		fmt.Fprintf(w, "chaos enforce verdict: FAIL — %d stale rows served\n", n)
		return fmt.Errorf("chaos: enforcing fence served %d stale result sets", n)
	}
	fmt.Fprintf(w, "chaos enforce verdict: PASS — stale rows: 0 of %d queries\n", enforce.queries)

	n := blind.staleExec + blind.staleStream
	if n == 0 {
		fmt.Fprintln(w, "chaos version-blind verdict: FAIL — control detected no stale result sets")
		return fmt.Errorf("chaos: version-blind control produced no staleness; the schedule no longer exercises the fence")
	}
	fmt.Fprintf(w, "chaos version-blind verdict: PASS — control detected %d stale result sets\n", n)
	return nil
}

// versionBlind hides the data version of the fault injector it wraps
// (endpoint.DataVersionOf does not step through it), so the fence sees
// an unversioned endpoint and never drops what it cached from it.
type versionBlind struct{ *endpoint.Faulty }

// chaosQueries is the soak length (also the virtual-time horizon of
// the churn schedule).
const chaosQueries = 200

// chaosResult summarizes one soak pass.
type chaosResult struct {
	queries     int
	errs        int
	staleExec   int // Execute result sets differing from the oracle
	staleStream int // ExecuteStream result sets differing from the oracle
	churned     int64
}

// chaosPass runs one soak; blind hides the endpoints' data versions.
func chaosPass(w io.Writer, opts Options, label string, blind bool, seed int64) (chaosResult, error) {
	fed := LUBM(4, opts)

	// Wrap each endpoint with its seeded fault stream and churn
	// schedule. Endpoint 1 flaps (2 down / 20 up), endpoint 2 caps
	// request size (oversized VALUES blocks bounce with 413 and are
	// bisected), all endpoints inject transient errors and rare hangs.
	faulty := make([]endpoint.Endpoint, len(fed.Endpoints))
	engineEps := make([]endpoint.Endpoint, len(fed.Endpoints))
	var wrappers []*endpoint.Faulty
	for i, ep := range fed.Endpoints {
		cfg := endpoint.FaultConfig{
			Seed:      seed + int64(i)*7919,
			ErrorRate: 0.05,
			HangRate:  0.002,
			Mutations: chaosSchedule(fed.Locals[i].Store().Triples(), seed+int64(i)),
		}
		switch i {
		case 1:
			cfg.FlapDownFor, cfg.FlapUpFor = 2, 20
		case 2:
			cfg.MaxRequestBytes = 2048
		}
		f := endpoint.NewFaulty(ep, cfg)
		faulty[i], engineEps[i] = f, f
		if blind {
			engineEps[i] = versionBlind{f}
		}
		wrappers = append(wrappers, f)
	}

	// Hang recovery needs a short per-attempt timeout; the breaker is
	// disabled so the flapping endpoint degrades into retries rather
	// than fast-failing whole queries.
	rc := endpoint.ResilienceConfig{
		Timeout:     150 * time.Millisecond,
		MaxRetries:  6,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		Seed:        seed,
	}
	eng := core.New(engineEps, core.Config{
		Resilience:        &rc,
		SubqueryCacheSize: 512,
		SubqueryCacheTTL:  0, // never expires: only the fence protects reuse
	})

	// The oracle shares the Locals (same data version at every tick)
	// but sees no faults and retains nothing.
	oracle := core.New(fed.Endpoints, core.Config{DisableCache: true})

	queries := []string{"Q1", "Q2", "Q3", "Q4"}
	var res chaosResult
	for i := 0; i < chaosQueries; i++ {
		endpoint.TickAll(faulty, int64(i+1))
		qn := queries[i%len(queries)]
		q := lubm.Queries[qn]

		ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
		truthRes, err := oracle.Execute(ctx, q)
		if err != nil {
			cancel()
			return res, fmt.Errorf("chaos %s: oracle %s at tick %d: %w", label, qn, i+1, err)
		}
		truth := testfed.Canon(truthRes)

		res.queries++
		if got, err := eng.Execute(ctx, q); err != nil {
			res.errs++
		} else if !sameRows(testfed.Canon(got), truth) {
			res.staleExec++
		}
		// The streamed Results summary carries no rows; rebuild the
		// result set from the delivered chunks for the oracle check.
		streamed := &sparql.Results{}
		_, _, _, err = eng.ExecuteStreamTraced(ctx, q,
			func(vars []sparql.Var, rows []sparql.Binding) error {
				streamed.Vars = vars
				streamed.Rows = append(streamed.Rows, rows...)
				return nil
			})
		if err != nil {
			res.errs++
		} else if !sameRows(testfed.Canon(streamed), truth) {
			res.staleStream++
		}
		cancel()
	}

	for _, f := range wrappers {
		res.churned += f.Churned()
	}
	st := eng.CoherenceStats()

	fmt.Fprintf(w, "%-8s queries=%d errors=%d stale-exec=%d stale-stream=%d churn=%d probes=%d changes=%d fenced=%d\n",
		label, res.queries, res.errs, res.staleExec, res.staleStream,
		res.churned, st.Probes, st.Changes, st.Fenced)
	// Faults must stay survivable: the soak proves coherence under
	// churn, not query loss. A double-digit error share means the
	// fault/retry balance drifted and the oracle comparison went blind.
	if res.errs > res.queries/5 {
		return res, fmt.Errorf("chaos %s: %d of %d query executions failed; schedule no longer survivable", label, res.errs, res.queries)
	}
	return res, nil
}

// chaosSchedule builds a deterministic churn schedule over an
// endpoint's initial graph: every few ticks a seeded batch of triples
// is deleted and the previously deleted batch is re-inserted, so the
// endpoint's answer set keeps oscillating (and its data version keeps
// climbing) for the whole soak without draining the store.
func chaosSchedule(g rdf.Graph, seed int64) []endpoint.Mutation {
	pool := append(rdf.Graph(nil), g...)
	// Store iteration order is nondeterministic; the schedule must not
	// be. Sort the pool before sampling from it.
	sort.Slice(pool, func(i, j int) bool {
		a, b := pool[i], pool[j]
		if a.S.Value != b.S.Value {
			return a.S.Value < b.S.Value
		}
		if a.P.Value != b.P.Value {
			return a.P.Value < b.P.Value
		}
		return a.O.Value < b.O.Value
	})
	rng := rand.New(rand.NewSource(seed))
	batch := len(pool) / 40
	if batch < 1 {
		batch = 1
	}
	var muts []endpoint.Mutation
	var prev rdf.Graph
	for tick := int64(3); tick < chaosQueries; tick += 7 {
		del := make(rdf.Graph, 0, batch)
		for k := 0; k < batch; k++ {
			del = append(del, pool[rng.Intn(len(pool))])
		}
		muts = append(muts, endpoint.Mutation{AtTick: tick, Delete: del, Insert: prev})
		prev = del
	}
	return muts
}
