package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lusail/internal/benchdata/lubm"
	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/testfed"
)

// Degradation tests: with a policy configured the engine trades
// completeness for availability — partial answers are returned
// annotated, never silently.

// waitIdle asserts no request is left inside the engine's endpoint
// clients after a (possibly degraded) run; phase-2 drops must not leak
// concurrency.
func waitIdle(t *testing.T, l *Lusail) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for l.InFlight() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := l.InFlight(); n != 0 {
		t.Errorf("engine leaked %d in-flight requests", n)
	}
}

// hangEndpoint hangs every subquery (SELECT ?…) until its context ends,
// signalling started on the first; probes pass through.
type hangEndpoint struct {
	endpoint.Endpoint
	started chan struct{}
	once    sync.Once
}

func (h *hangEndpoint) Query(ctx context.Context, q string) (*sparql.Results, error) {
	if !strings.HasPrefix(q, "SELECT ?") {
		return h.Endpoint.Query(ctx, q)
	}
	h.once.Do(func() { close(h.started) })
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestInFlightCountsABlockedRequest: a subquery request hung at an
// endpoint is counted by Lusail.InFlight while it hangs, and the count
// returns to 0 once the query is cancelled.
func TestInFlightCountsABlockedRequest(t *testing.T) {
	eps := accountingFederation(2)
	hung := &hangEndpoint{Endpoint: eps[1], started: make(chan struct{})}
	eps[1] = hung
	l := New(eps, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := l.Execute(ctx, `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`)
		done <- err
	}()
	select {
	case <-hung.started:
	case <-time.After(5 * time.Second):
		t.Fatal("the subquery never reached the hanging endpoint")
	}
	// The other endpoint's request finishes; the hung one stays.
	deadline := time.Now().Add(time.Second)
	for l.InFlight() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := l.InFlight(); n != 1 {
		t.Fatalf("InFlight = %d while one request hangs, want 1", n)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	waitIdle(t, l)
}

// lubmFederation builds the 4-endpoint LUBM federation, optionally
// excluding one endpoint or wrapping the set.
func lubmFederation(skip int, wrap func([]endpoint.Endpoint) []endpoint.Endpoint) []endpoint.Endpoint {
	graphs := lubm.Generate(lubm.DefaultConfig(4))
	var eps []endpoint.Endpoint
	for i, g := range graphs {
		if i == skip {
			continue
		}
		st := store.New()
		for _, tr := range g {
			st.Add(tr)
		}
		eps = append(eps, endpoint.NewLocal(fmt.Sprintf("lubm%d", i), st))
	}
	if wrap != nil {
		eps = wrap(eps)
	}
	return eps
}

// TestBestEffortEqualsSurvivingPartition is the issue's acceptance
// scenario: one LUBM endpoint hard-down under best-effort. Every
// benchmark query must return without error, match the answer of a
// federation without the dead endpoint, and name it in the report.
func TestBestEffortEqualsSurvivingPartition(t *testing.T) {
	rc := endpoint.ResilienceConfig{
		MaxRetries:  1,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	}
	oracle := New(lubmFederation(1, nil), Config{})
	degraded := New(lubmFederation(-1, func(eps []endpoint.Endpoint) []endpoint.Endpoint {
		eps[1] = endpoint.NewFaulty(eps[1], endpoint.FaultConfig{Down: true})
		return eps
	}), Config{Resilience: &rc, Degradation: endpoint.DegradeBestEffort})
	ctx := context.Background()
	for name, q := range lubm.Queries {
		want, err := oracle.Execute(ctx, q)
		if err != nil {
			t.Fatalf("%s surviving-partition oracle: %v", name, err)
		}
		got, m, _, err := degraded.ExecuteStreamTraced(ctx, q, nil)
		if err != nil {
			t.Errorf("%s: best-effort run failed: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(testfed.Canon(want), testfed.Canon(got)) {
			t.Errorf("%s: best-effort answer differs from the surviving partition", name)
		}
		if m.Completeness == nil || m.Completeness.Complete {
			t.Errorf("%s: degraded run not annotated: %+v", name, m.Completeness)
			continue
		}
		if eps := m.Completeness.DroppedEndpoints(); len(eps) != 1 || eps[0] != "lubm1" {
			t.Errorf("%s: dropped endpoints = %v, want [lubm1]", name, eps)
		}
		if m.DroppedEndpoints == 0 {
			t.Errorf("%s: metrics did not count the drops", name)
		}
	}
	waitIdle(t, degraded)
}

// TestSkipEndpointKeepsCoveredSources: skip-endpoint succeeds while a
// surviving endpoint still covers every pattern, and the answer is
// exactly the surviving partition's.
func TestSkipEndpointKeepsCoveredSources(t *testing.T) {
	oracleEP, _ := testfed.Universities()
	ctx := context.Background()
	want, err := New([]endpoint.Endpoint{oracleEP}, Config{}).Execute(ctx, testfed.QaChain)
	if err != nil {
		t.Fatalf("single-endpoint oracle: %v", err)
	}
	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{
		ep1,
		endpoint.NewFaulty(ep2, endpoint.FaultConfig{Down: true}),
	}, Config{Degradation: endpoint.DegradeSkipEndpoint})
	got, m, _, err := l.ExecuteStreamTraced(ctx, testfed.QaChain, nil)
	if err != nil {
		t.Fatalf("skip-endpoint with a covered survivor failed: %v", err)
	}
	if !reflect.DeepEqual(testfed.Canon(want), testfed.Canon(got)) {
		t.Error("skip-endpoint answer differs from the surviving partition")
	}
	if m.Completeness == nil || m.Completeness.Complete {
		t.Errorf("skip-endpoint run not annotated: %+v", m.Completeness)
	} else if eps := m.Completeness.DroppedEndpoints(); len(eps) != 1 || eps[0] != "EP2" {
		t.Errorf("dropped endpoints = %v, want [EP2]", eps)
	}
	waitIdle(t, l)
}

// TestSkipEndpointErrorsOnTotalSourceLoss: when every source of a
// required pattern is gone, skip-endpoint refuses to fabricate an
// empty answer; best-effort returns one, annotated.
func TestSkipEndpointErrorsOnTotalSourceLoss(t *testing.T) {
	build := func(policy endpoint.DegradePolicy) *Lusail {
		ep1, ep2 := testfed.Universities()
		return New([]endpoint.Endpoint{
			endpoint.NewFaulty(ep1, endpoint.FaultConfig{Down: true}),
			endpoint.NewFaulty(ep2, endpoint.FaultConfig{Down: true}),
		}, Config{Degradation: policy})
	}
	ctx := context.Background()
	if _, err := build(endpoint.DegradeSkipEndpoint).Execute(ctx, testfed.QaChain); err == nil {
		t.Error("skip-endpoint returned success with the whole federation down")
	}
	l := build(endpoint.DegradeBestEffort)
	res, m, _, err := l.ExecuteStreamTraced(ctx, testfed.QaChain, nil)
	if err != nil {
		t.Fatalf("best-effort with the whole federation down: %v", err)
	}
	if res.Len() != 0 {
		t.Errorf("best-effort fabricated %d rows from dead endpoints", res.Len())
	}
	if m.Completeness == nil || m.Completeness.Complete {
		t.Errorf("total loss not annotated: %+v", m.Completeness)
	}
}

// valuesKiller lets `allow` bound (VALUES) requests through, then
// fails every later one: an endpoint dying between chunk k and k+1.
type valuesKiller struct {
	inner endpoint.Endpoint
	allow int64
	seen  atomic.Int64
}

func (v *valuesKiller) Name() string { return v.inner.Name() }

func (v *valuesKiller) Query(ctx context.Context, query string) (*sparql.Results, error) {
	if strings.Contains(query, "VALUES") && v.seen.Add(1) > v.allow {
		return nil, endpoint.Transient(fmt.Errorf("endpoint died mid-stream"))
	}
	return v.inner.Query(ctx, query)
}

// TestPhase2MidStreamFailurePerPolicy: an endpoint dies between
// VALUES chunks of a delayed subquery. Fail surfaces the error;
// skip-endpoint and best-effort keep the surviving source and the
// chunks already fetched, and annotate the loss.
func TestPhase2MidStreamFailurePerPolicy(t *testing.T) {
	ctx := context.Background()
	ep1, ep2 := testfed.Universities()
	truth, err := New([]endpoint.Endpoint{ep1, ep2}, Config{}).Execute(ctx, testfed.QaChain)
	if err != nil {
		t.Fatalf("fault-free truth: %v", err)
	}
	truthRows := map[string]bool{}
	for _, r := range testfed.Canon(truth) {
		truthRows[r] = true
	}

	run := func(policy endpoint.DegradePolicy) (*sparql.Results, Metrics, *valuesKiller, error) {
		e1, e2 := testfed.Universities()
		killer := &valuesKiller{inner: e2, allow: 1}
		l := New([]endpoint.Endpoint{e1, killer}, Config{
			DelayPolicy: DelayAll,
			Degradation: policy,
		})
		l.executor.bindBlockSize = 1
		res, m, _, err := l.ExecuteStreamTraced(ctx, testfed.QaChain, nil)
		waitIdle(t, l)
		return res, m, killer, err
	}

	_, _, killer, err := run(endpoint.DegradeFail)
	if err == nil {
		t.Error("fail policy swallowed a mid-stream endpoint death")
	}
	if killer.seen.Load() < 2 {
		t.Fatalf("fixture sent %d bound requests to EP2, want >= 2 (chunking not exercised)", killer.seen.Load())
	}

	for _, policy := range []endpoint.DegradePolicy{endpoint.DegradeSkipEndpoint, endpoint.DegradeBestEffort} {
		res, m, _, err := run(policy)
		if err != nil {
			t.Errorf("%v: mid-stream death not absorbed: %v", policy, err)
			continue
		}
		for _, r := range testfed.Canon(res) {
			if !truthRows[r] {
				t.Errorf("%v: fabricated row %q not in the fault-free answer", policy, r)
			}
		}
		if m.Completeness == nil || m.Completeness.Complete {
			t.Errorf("%v: partial answer not annotated: %+v", policy, m.Completeness)
			continue
		}
		found := false
		for _, d := range m.Completeness.Dropped {
			if d.Endpoint == "EP2" && d.Phase == "phase2" {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: drops %v do not record EP2@phase2", policy, m.Completeness.Dropped)
		}
	}
}

// chainFederation builds two endpoints holding a 1:1 join chain
// s_i -p-> o_i (ep1) and o_i -q-> v_i (ep2), so the full answer has n
// rows and ?o is a GJV whose delayed side is bound with n VALUES.
func chainFederation(n int, wrap func(endpoint.Endpoint) endpoint.Endpoint) []endpoint.Endpoint {
	st1, st2 := store.New(), store.New()
	p, q := rdf.IRI("http://ex/p"), rdf.IRI("http://ex/q")
	for i := 0; i < n; i++ {
		s := rdf.IRI(fmt.Sprintf("http://ex/s%03d", i))
		o := rdf.IRI(fmt.Sprintf("http://ex/o%03d", i))
		v := rdf.IRI(fmt.Sprintf("http://ex/v%03d", i))
		st1.Add(rdf.T(s, p, o))
		st2.Add(rdf.T(o, q, v))
	}
	eps := []endpoint.Endpoint{
		endpoint.NewLocal("ep1", st1),
		endpoint.NewLocal("ep2", st2),
	}
	if wrap != nil {
		for i := range eps {
			eps[i] = wrap(eps[i])
		}
	}
	return eps
}

const chainQuery = `SELECT ?s ?o ?v WHERE { ?s <http://ex/p> ?o . ?o <http://ex/q> ?v }`

// TestBoundBisectionCompletesUnder414: endpoints capping request size
// at well below one default VALUES block still answer completely —
// rejected blocks are bisected until they fit, and the splits are
// counted. Bisection is policy-independent: this runs under the
// default fail policy.
func TestBoundBisectionCompletesUnder414(t *testing.T) {
	l := New(chainFederation(200, func(ep endpoint.Endpoint) endpoint.Endpoint {
		return endpoint.NewFaulty(ep, endpoint.FaultConfig{MaxRequestBytes: 600, OversizeStatus: 414})
	}), Config{DelayPolicy: DelayAll})
	res, m, _, err := l.ExecuteStreamTraced(context.Background(), chainQuery, nil)
	if err != nil {
		t.Fatalf("bisection did not recover from 414 rejections: %v", err)
	}
	if res.Len() != 200 {
		t.Errorf("rows = %d, want the complete 200", res.Len())
	}
	if m.ChunkSplits == 0 {
		t.Error("no chunk splits counted despite oversize rejections")
	}
	// Each split re-sends the rejected block as two halves.
	if want := m.BoundBlocks + 2*m.ChunkSplits; m.Phase2Requests != want {
		t.Errorf("phase-2 requests = %d, want blocks %d + 2·splits %d = %d",
			m.Phase2Requests, m.BoundBlocks, m.ChunkSplits, want)
	}
	if m.Completeness != nil && !m.Completeness.Complete {
		t.Errorf("complete answer marked partial: %+v", m.Completeness)
	}
	waitIdle(t, l)
}

// blockFailer answers every request but the VALUES block naming one
// value, which it rejects with a 503: a fault, not an oversized block,
// so bisection does not apply.
type blockFailer struct {
	endpoint.Endpoint
	value string
}

func (f blockFailer) Query(ctx context.Context, query string) (*sparql.Results, error) {
	if strings.Contains(query, "VALUES") && strings.Contains(query, f.value) {
		return nil, &endpoint.HTTPError{Endpoint: f.Name(), Status: 503}
	}
	return f.Endpoint.Query(ctx, query)
}

// TestBoundDegradeDropsOnlyTheFailedBlock: under best-effort, one
// block rejected with a non-splittable 503 among its source's
// concurrent blocks drops that block's rows alone. The source's other
// blocks keep theirs, the answer is a subset of the oracle's and
// annotated partial, and the source no longer counts as a partition.
func TestBoundDegradeDropsOnlyTheFailedBlock(t *testing.T) {
	q := rdf.IRI("http://ex/q")
	locals := []*endpoint.Local{}
	for e := 0; e < 2; e++ {
		st := store.New()
		for i := 20 * e; i < 20*(e+1); i++ {
			st.Add(rdf.T(rdf.IRI(fmt.Sprintf("http://ex/o%03d", i)), q, rdf.IRI(fmt.Sprintf("http://ex/v%03d", i))))
		}
		locals = append(locals, endpoint.NewLocal(fmt.Sprintf("ep%d", e), st))
	}
	ex := NewExecutor([]endpoint.Endpoint{locals[0], blockFailer{locals[1], "o025>"}})
	ex.bindBlockSize = 5
	sq := &Subquery{
		Patterns: sparql.MustParse(`SELECT * WHERE { ?o <http://ex/q> ?v }`).Where.Patterns,
		Sources:  []int{0, 1}, ProjVars: []sparql.Var{"o", "v"},
		OptionalGroup: -1, Delayed: true, EstCard: 40,
	}
	fb := newFoundBindings()
	fb.sets["o"] = map[rdf.Term]struct{}{}
	for i := 0; i < 40; i++ {
		fb.sets["o"][rdf.IRI(fmt.Sprintf("http://ex/o%03d", i))] = struct{}{}
	}
	dg := endpoint.NewDegrade(endpoint.DegradeBestEffort, time.Time{})
	var m Metrics
	rel, err := ex.runBound(context.Background(), sq, fb, dg, &m)
	if err != nil {
		t.Fatalf("best-effort did not absorb the 503: %v", err)
	}
	if m.Phase2Requests != 16 || m.ChunkSplits != 0 {
		t.Errorf("phase-2 requests = %d, splits = %d; want 8 blocks x 2 sources, no splits",
			m.Phase2Requests, m.ChunkSplits)
	}
	want := map[string]bool{}
	for _, r := range testfed.Canon(oracle(t, locals, `SELECT ?o ?v WHERE { ?o <http://ex/q> ?v }`)) {
		want[r] = true
	}
	got := testfed.Canon(&sparql.Results{Vars: rel.Vars, Rows: rel.Rows})
	for _, r := range got {
		if !want[r] {
			t.Errorf("row %q not in the oracle's answer", r)
		}
	}
	// The failed block holds o025..o029; ep1's other three blocks stay.
	if len(got) != 35 {
		t.Errorf("rows = %d, want 35 (all 40 but the failed block's 5)", len(got))
	}
	if c := dg.Completeness(); c.Complete || len(c.Dropped) != 1 || c.Dropped[0].Endpoint != "ep1" {
		t.Errorf("completeness = %+v, want one ep1 drop", c)
	}
	if rel.Partitions != 1 {
		t.Errorf("Partitions = %d, want 1 (ep1 lost a block)", rel.Partitions)
	}
}

// valuesRejecter 413s every bound request regardless of size,
// modelling a server that rejects VALUES syntactically: bisection can
// never succeed and must terminate at single-value blocks.
type valuesRejecter struct {
	inner endpoint.Endpoint
	calls atomic.Int64
}

func (v *valuesRejecter) Name() string { return v.inner.Name() }

func (v *valuesRejecter) Query(ctx context.Context, query string) (*sparql.Results, error) {
	if strings.Contains(query, "VALUES") {
		v.calls.Add(1)
		return nil, &endpoint.HTTPError{Endpoint: v.inner.Name(), Status: 413}
	}
	return v.inner.Query(ctx, query)
}

// TestBisectionTerminatesOnPermanent413: when even single-value
// blocks are rejected, bisection gives up after a bounded number of
// requests instead of recursing or hanging. Fail surfaces the error;
// best-effort records the drop.
func TestBisectionTerminatesOnPermanent413(t *testing.T) {
	run := func(policy endpoint.DegradePolicy) (*valuesRejecter, *Lusail, Metrics, error) {
		var rejecters []*valuesRejecter
		l := New(chainFederation(16, func(ep endpoint.Endpoint) endpoint.Endpoint {
			r := &valuesRejecter{inner: ep}
			rejecters = append(rejecters, r)
			return r
		}), Config{DelayPolicy: DelayAll, Degradation: policy})
		_, m, _, err := l.ExecuteStreamTraced(context.Background(), chainQuery, nil)
		total := &valuesRejecter{}
		for _, r := range rejecters {
			total.calls.Add(r.calls.Load())
		}
		return total, l, m, err
	}

	start := time.Now()
	total, _, _, err := run(endpoint.DegradeFail)
	if err == nil {
		t.Error("permanently rejected VALUES did not surface an error under fail")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("bisection against a permanent 413 took %v, want bounded", el)
	}
	// 16 values bisected to singletons is at most 2n-1 requests.
	if n := total.calls.Load(); n == 0 || n > 64 {
		t.Errorf("bound requests = %d, want 1..64 (termination bound)", n)
	}

	total, l, m, err := run(endpoint.DegradeBestEffort)
	if err != nil {
		t.Fatalf("best-effort did not absorb the permanent 413: %v", err)
	}
	if n := total.calls.Load(); n == 0 || n > 64 {
		t.Errorf("best-effort bound requests = %d, want 1..64", n)
	}
	if m.Completeness == nil || m.Completeness.Complete {
		t.Fatalf("best-effort 413 loss not annotated: %+v", m.Completeness)
	}
	found := false
	for _, d := range m.Completeness.Dropped {
		if strings.Contains(d.Reason, "HTTP 413") {
			found = true
		}
	}
	if !found {
		t.Errorf("drop reasons %v do not mention HTTP 413", m.Completeness.Dropped)
	}
	waitIdle(t, l)
}

// TestQueryBudgetBestEffortReturnsPartial: a query budget far below
// the endpoints' latency expires mid-run. Best-effort returns the
// annotated partial answer quickly; the default policy fails.
func TestQueryBudgetBestEffortReturnsPartial(t *testing.T) {
	build := func(policy endpoint.DegradePolicy) *Lusail {
		ep1, ep2 := testfed.Universities()
		return New([]endpoint.Endpoint{
			endpoint.NewFaulty(ep1, endpoint.FaultConfig{SlowBy: 50 * time.Millisecond}),
			endpoint.NewFaulty(ep2, endpoint.FaultConfig{SlowBy: 50 * time.Millisecond}),
		}, Config{Degradation: policy, QueryBudget: 5 * time.Millisecond})
	}
	ctx := context.Background()

	if _, err := build(endpoint.DegradeFail).Execute(ctx, testfed.QaChain); err == nil {
		t.Error("fail policy returned success past an expired budget")
	}

	l := build(endpoint.DegradeBestEffort)
	start := time.Now()
	_, m, _, err := l.ExecuteStreamTraced(ctx, testfed.QaChain, nil)
	if err != nil {
		t.Fatalf("best-effort failed on budget expiry: %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("budget-bounded query took %v", el)
	}
	if m.Completeness == nil || m.Completeness.Complete {
		t.Fatalf("budget expiry not annotated: %+v", m.Completeness)
	}
	found := false
	for _, d := range m.Completeness.Dropped {
		if strings.Contains(d.Reason, "query budget exceeded") {
			found = true
		}
	}
	if !found {
		t.Errorf("drop reasons %v do not mention the budget", m.Completeness.Dropped)
	}
	waitIdle(t, l)
}

// TestBatchAttributesDropsPerQuery: concurrent queries sharing one
// engine's subquery cache each carry their own completeness report; a
// shared down endpoint shows up in every affected query's metrics, not
// just one.
func TestBatchAttributesDropsPerQuery(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{
		ep1,
		endpoint.NewFaulty(ep2, endpoint.FaultConfig{Down: true}),
	}, Config{Degradation: endpoint.DegradeBestEffort, SubqueryCacheSize: 64})
	batch := runConcurrently(l, []string{testfed.Qa, testfed.QaChain})
	for i, br := range batch {
		if br.err != nil {
			t.Errorf("batch[%d]: %v", i, br.err)
			continue
		}
		c := br.m.Completeness
		if c == nil || c.Complete {
			t.Errorf("batch[%d] not annotated: %+v", i, c)
			continue
		}
		for _, ep := range c.DroppedEndpoints() {
			if ep != "EP2" {
				t.Errorf("batch[%d] dropped healthy endpoint %q", i, ep)
			}
		}
		if br.m.DroppedEndpoints == 0 {
			t.Errorf("batch[%d] metrics did not count the drops", i)
		}
	}
	waitIdle(t, l)
}

// TestExplainAnalyzeReportsCompleteness: the profiled plan of a
// degraded run renders its completeness line.
func TestExplainAnalyzeReportsCompleteness(t *testing.T) {
	ep1, ep2 := testfed.Universities()
	l := New([]endpoint.Endpoint{
		ep1,
		endpoint.NewFaulty(ep2, endpoint.FaultConfig{Down: true}),
	}, Config{Degradation: endpoint.DegradeBestEffort})
	an, err := l.ExplainAnalyze(context.Background(), testfed.QaChain)
	if err != nil {
		t.Fatalf("explain analyze under degradation: %v", err)
	}
	out := an.String()
	if !strings.Contains(out, "completeness: partial") {
		t.Errorf("analysis output missing completeness line:\n%s", out)
	}
	if !strings.Contains(out, "EP2") {
		t.Errorf("analysis output does not name the dropped endpoint:\n%s", out)
	}
}
