package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/trace"
)

// foundBindings is SAPE's hashmap of the values observed for each
// variable across the required relations evaluated so far; delayed
// subqueries are bound against it (§V-B).
type foundBindings struct {
	sets map[sparql.Var]map[rdf.Term]struct{}
}

func newFoundBindings() *foundBindings {
	return &foundBindings{sets: map[sparql.Var]map[rdf.Term]struct{}{}}
}

// update intersects each of rel's variables' candidate sets with the
// values the relation actually contains; a final answer's value for v
// must occur in every required relation that binds v. Variables left
// unbound in any row (possible for UNION relations) are skipped: such
// a row is join-compatible with any value of v, so the relation
// constrains nothing.
func (fb *foundBindings) update(rel *Relation) {
	for _, v := range rel.Vars {
		observed := map[rdf.Term]struct{}{}
		certain := true
		for _, row := range rel.Rows {
			if t, ok := row[v]; ok {
				observed[t] = struct{}{}
			} else {
				certain = false
				break
			}
		}
		if !certain {
			continue
		}
		if prev, ok := fb.sets[v]; ok {
			for t := range prev {
				if _, keep := observed[t]; !keep {
					delete(prev, t)
				}
			}
		} else {
			fb.sets[v] = observed
		}
	}
}

// covered reports whether bindings exist for v.
func (fb *foundBindings) covered(v sparql.Var) bool {
	_, ok := fb.sets[v]
	return ok
}

// valuesFor returns the candidate values of v in deterministic order.
func (fb *foundBindings) valuesFor(v sparql.Var) []rdf.Term {
	set := fb.sets[v]
	out := make([]rdf.Term, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Executor runs SAPE (Algorithm 3): concurrent evaluation of
// non-delayed subqueries, bound evaluation of delayed ones, and the
// cost-ordered parallel hash join of all results.
type Executor struct {
	Endpoints []endpoint.Endpoint
	// bindBlockSize is the number of VALUES per bound-subquery block
	// (0 = defaultBindBlockSize).
	bindBlockSize int
	// Observe, when non-nil, receives each phase-1 subquery's observed
	// row count (with the estimate it was planned under on sq.EstCard)
	// — the calibration feedback loop.
	Observe func(sq *Subquery, actualRows int)
}

const (
	// defaultBindBlockSize is the VALUES rows per bound block when
	// Executor.bindBlockSize is unset.
	defaultBindBlockSize = 100
	// boundBlockBytes caps the approximate serialized size of one VALUES
	// block, complementing the row cap: many long IRIs can oversize a
	// block long before it reaches bindBlockSize rows, and servers cap
	// URL/body sizes, not row counts. Blocks an endpoint still rejects
	// (400/413/414) or times out on are bisected and retried.
	boundBlockBytes = 64 * 1024
)

// NewExecutor builds an executor over the endpoints.
func NewExecutor(eps []endpoint.Endpoint) *Executor {
	return &Executor{Endpoints: eps}
}

// landing is one phase-1 subquery's finalized relation, as delivered
// to the execution loop. rows is its cardinality: rel holds no rows
// when they went into the stream and nobody keeps them.
type landing struct {
	sq     *Subquery
	text   string
	rel    *Relation
	rows   int
	dur    time.Duration
	shared bool
}

// execution is the state one Execute call's steps share. Only launch's
// goroutines run beside the call itself; they touch the immutable
// fields, issued, and the channels.
type execution struct {
	ex    *Executor
	p     *Plan
	cache *SubqueryCache
	dg    *endpoint.Degrade
	m     *Metrics
	// issued counts phase-1 requests where they are sent, so an
	// execution cut short still reports them.
	issued atomic.Int64

	p1Ctx  context.Context // phase-1 requests, under the phase span
	endP1  func()          // closes the phase span (End is idempotent)
	cancel context.CancelFunc
	errCh  chan error // the first failure (fail)
	// Every phase-1 subquery lands at most once, so the buffer lets
	// launched goroutines finish without a receiver after an early return.
	landCh chan landing

	tail     *Subquery   // streams through instead of landing whole; may be nil
	queue    *chunkQueue // the tail's chunks
	keepTail bool        // the sink holds every row anyway: the tail is kept whole too

	phase1, pending []*Subquery // pending: delayed, not yet launched
	landed          map[*Subquery]bool
	inFlight        int // launched and not landed, the tail not counted

	fb                 *foundBindings
	required, optional []*Relation
	// Relations land in arrival order, which varies run to run; the join
	// order search breaks ties by input position, so each relation is
	// ranked by its place in the plan and the fold sees plan order.
	rank map[*Relation]int
	// empty is set once a required relation lands with no rows: the join
	// is then empty whatever else arrives, and the rest is not awaited.
	empty bool
}

// addRel is the one place that files a relation as required (join side,
// found bindings) or optional (left-joined per chunk).
func (e *execution) addRel(rel *Relation, rank int) {
	e.rank[rel] = rank
	if rel.Optional {
		e.optional = append(e.optional, rel)
		return
	}
	e.required = append(e.required, rel)
	e.fb.update(rel)
	e.empty = e.empty || len(rel.Rows) == 0
}

// addSubqueryRel files sq's relation. The relation is private to this
// query (the cache snapshots on both store and read), so stamping it
// optional cannot leak across consumers.
func (e *execution) addSubqueryRel(sq *Subquery, rel *Relation) {
	rel.Optional, rel.OptionalGroup = sq.Optional, sq.OptionalGroup
	e.addRel(rel, len(e.p.extra)+slices.Index(e.p.Subqueries, sq))
}

// fail records the first unabsorbable error and stops the in-flight work.
func (e *execution) fail(err error) {
	select {
	case e.errCh <- err:
	default:
	}
	e.cancel()
}

// cause returns the recorded failure, if any, in preference to err: a
// failure cancels the shared context, and whatever was running under it
// then reports that cancellation rather than the reason for it.
func (e *execution) cause(err error) error {
	select {
	case first := <-e.errCh:
		return first
	default:
		return err
	}
}

// launch evaluates sq unbound on its own goroutine, through the cache
// (in-flight sharing, waiter retries, retention and the invalidation
// fence are SubqueryCache.Do's), and lands the relation. The tail's
// rows also go into the stream the moment an endpoint answers. They
// are kept, so that the relation reaches the cache whole like any
// other, only when the sink holds every row anyway: a sink that lets
// rows go would pay for a copy of the query's largest relation, so
// there the tail is replayed from the cache when a retaining execution
// left it, and otherwise computed for this query alone.
func (e *execution) launch(sq *Subquery) {
	var stream *chunkQueue
	keep := true
	if sq == e.tail {
		stream, keep = e.queue, e.keepTail
	} else {
		e.inFlight++
	}
	go func() {
		defer stream.close()
		start := time.Now()
		text := sq.Query().String()
		var key string
		var srcs []string
		if e.cache != nil {
			key, srcs = SubqueryKey(sq, text, e.ex.Endpoints)
		}
		var kept []sparql.Binding
		rows := 0
		compute := func() (*Relation, error) {
			e.issued.Add(int64(len(sq.Sources)))
			rel, err := e.ex.evalUnbound(e.p1Ctx, sq, text, e.dg, func(part []sparql.Binding) {
				rows += len(part)
				stream.pushAll(part)
				if keep {
					kept = append(kept, part...)
				}
			})
			if err == nil {
				rel.Rows = kept
			}
			return rel, err
		}
		// A caller under an absorbing degradation policy can reuse a
		// partial cached relation: the drop records it carries are
		// merged into this query's own completeness report at landing.
		// A strict caller (DegradeFail) never sees partial entries.
		rel, shared, err := e.cache.Do(e.p1Ctx, key, srcs, e.dg.Active(), keep, compute)
		if err != nil {
			e.fail(fmt.Errorf("sape phase 1: %w", err))
			return
		}
		if shared {
			rows = len(rel.Rows)
			stream.pushAll(rel.Rows)
		}
		e.landCh <- landing{sq: sq, text: text, rel: rel, rows: rows, dur: time.Since(start), shared: shared}
	}()
}

// land takes one phase-1 relation into the plan: bookkeeping for every
// relation, then — the tail's rows are already in the stream — the join
// side and found bindings for the others.
func (e *execution) land(l landing) {
	e.landed[l.sq] = true
	// Drops stamped on the relation — by this query's own evaluation or
	// by the query that computed a shared one — go into THIS query's
	// completeness report.
	e.dg.Merge(l.rel.Dropped)
	requests := len(l.sq.Sources)
	if l.shared {
		requests = 0
	}
	sp := recordSubquerySpan(trace.SpanFrom(e.p1Ctx), l.sq, l.text, l.rows, l.dur, requests)
	if l.shared {
		sp.Set("shared", true)
	}
	// Feed the calibrator the actual row count, against the estimate
	// the subquery was planned under. A replayed or partial relation is
	// skipped: the first was observed by the query that computed it,
	// and the second would teach the calibrator that estimates
	// overshoot when in fact an endpoint's contribution went missing.
	if e.ex.Observe != nil && !l.sq.Optional && !l.shared && len(l.rel.Dropped) == 0 {
		e.ex.Observe(l.sq, l.rows)
	}
	if l.sq == e.tail {
		return
	}
	e.inFlight--
	e.addSubqueryRel(l.sq, l.rel)
}

// depsMet reports whether every required phase-1 relation sharing a
// variable with the delayed subquery d has landed: its VALUES blocks
// depend on nothing else.
func (e *execution) depsMet(d *Subquery) bool {
	for _, s := range e.phase1 {
		if s == e.tail || s.Optional || e.landed[s] {
			continue
		}
		for _, v := range d.Vars() {
			if s.HasVar(v) {
				return false
			}
		}
	}
	return true
}

// Execute evaluates one group's plan, pipelined, and delivers the
// group's solution rows (joined and filtered, before solution
// modifiers) through sink in chunks of at most streamChunkRows. It is
// the only executor: a caller that wants a materialized relation drains
// the stream into a collector, and says so with sinkKeeps (the sink
// holds on to every row it is given), which lets the tail below reach
// the subquery cache like every other relation.
//
// Non-delayed subqueries launch concurrently. One of them — the tail,
// when pickStreamTail finds one — does not wait to be whole: its rows
// flow through as chunks the moment an endpoint answers and probe a
// hash join whose build side is the fold of every other relation, so
// final rows leave while slower sources are still on the wire. A
// delayed subquery launches, bound to the found bindings, the moment
// the phase-1 relations sharing its variables have landed. Without an
// eligible tail the folded accumulator itself is the stream. The
// emitted multiset does not depend on which relation is the tail: the
// tail is excluded from the found-bindings sets, which could only
// loosen VALUES blocks, and it shares no variable with a delayed
// subquery, so the blocks are identical.
//
// dg is the query's degradation state (nil: every failure is fatal),
// and the execution adds its request, VALUES-block and split counts to
// m. The query budget and the trace spans, which collect the fault
// events, ride ctx. cache, when non-nil, shares phase-1 results across
// queries.
func (ex *Executor) Execute(ctx context.Context, p *Plan, cache *SubqueryCache, dg *endpoint.Degrade, m *Metrics, sink StreamSink, sinkKeeps bool) error {
	e := &execution{
		ex: ex, p: p, cache: cache, dg: dg, m: m,
		keepTail: sinkKeeps, landed: map[*Subquery]bool{},
		fb: newFoundBindings(), rank: map[*Relation]int{},
	}
	defer func() { m.Phase1Requests += int(e.issued.Load()) }()

	for _, sq := range p.Subqueries {
		if sq.Delayed {
			e.pending = append(e.pending, sq)
		} else {
			e.phase1 = append(e.phase1, sq)
		}
	}
	e.tail = pickStreamTail(e.phase1, e.pending)
	// Pre-materialized relations: UNION/VALUES blocks are required-side;
	// recursively evaluated OPTIONAL groups left-join.
	for i, rel := range p.extra {
		e.addRel(rel, i)
	}

	// Everything below runs under a cancellable context: the first
	// unabsorbable error, a sink abort, or a provably empty join stops
	// the remaining in-flight work.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	e.cancel, e.errCh = cancel, make(chan error, 1)

	// ---- Phase 1: concurrent unbound evaluation ---------------------
	p1Ctx, p1Span := startPhase(runCtx, "phase1")
	e.p1Ctx, e.endP1 = p1Ctx, p1Span.End
	defer e.endP1()
	e.landCh = make(chan landing, len(e.phase1))
	if e.tail != nil {
		e.queue = newChunkQueue()
	}
	for _, sq := range e.phase1 {
		e.launch(sq)
	}
	if err := e.gather(runCtx); err != nil || e.empty {
		return err
	}
	return e.emit(trace.SpanFrom(ctx), sink)
}

// gather is phase 2, launched eagerly, around the phase-1 landings: a
// delayed subquery's VALUES blocks depend only on the required
// relations sharing one of its variables, so it launches, most selective
// first, the moment those have landed, while the tail and unrelated
// subqueries are still on the wire (Algorithm 3 lines 10-18). It returns
// once every relation but the tail is filed, or the join is provably
// empty.
func (e *execution) gather(runCtx context.Context) error {
	var p2Span *trace.Span
	p2Ctx := runCtx
	defer func() { p2Span.End() }()
	for !e.empty && (e.inFlight > 0 || len(e.pending) > 0) {
		if len(e.pending) > 0 {
			// BestEffort stops issuing delayed subqueries once the query
			// budget expires: the remaining ones are skipped (the result may
			// then be a superset of the exact answer) and annotated. Other
			// policies let the context deadline fail the next request.
			if e.dg.Policy() == endpoint.DegradeBestEffort && e.dg.BudgetExpired() {
				for _, sq := range e.pending {
					e.dg.Drop("", sqLabel(sq), "phase2", context.DeadlineExceeded)
				}
				e.pending = nil
				continue
			}
			var eligible []*Subquery
			for _, d := range e.pending {
				if e.depsMet(d) {
					eligible = append(eligible, d)
				}
			}
			if len(eligible) > 0 {
				if p2Span == nil {
					p2Ctx, p2Span = startPhase(runCtx, "phase2")
				}
				sq := eligible[e.ex.pickMostSelective(eligible, e.fb)]
				e.pending = without(e.pending, sq)
				rel, err := e.ex.runBound(p2Ctx, sq, e.fb, e.dg, e.m)
				if err != nil {
					return e.cause(err)
				}
				e.addSubqueryRel(sq, rel)
				continue
			}
		}
		// Nothing launchable: wait for the next phase-1 landing.
		select {
		case l := <-e.landCh:
			e.land(l)
			if e.inFlight == 0 && e.tail == nil {
				e.endP1()
			}
		case err := <-e.errCh:
			return err
		}
	}
	return nil
}

// emit joins what gather filed and delivers the group's rows. Required
// relations fold by the parallel hash join in cost order; OPTIONAL
// groups left-join and the group's residual filters apply per chunk of
// the stream (SPARQL applies group filters after all joins, so they may
// reference optionally-bound variables, e.g. !BOUND). With a tail and
// nothing to join it against, its chunks are the stream as they are;
// otherwise the fold is the build side the tail's chunks probe (or,
// without a tail, the stream itself).
func (e *execution) emit(parent *trace.Span, sink StreamSink) error {
	joinSpan := parent.StartChild("join")
	emitted := 0
	defer func() {
		joinSpan.Set("rows", int64(emitted))
		joinSpan.End()
	}()
	var acc *Relation
	if e.tail == nil || len(e.required) > 0 {
		sort.Slice(e.required, func(i, j int) bool { return e.rank[e.required[i]] < e.rank[e.required[j]] })
		acc = e.ex.joinAll(joinSpan, e.required)
		if len(acc.Rows) == 0 {
			return nil
		}
	}
	outVars := e.p.header()
	post := e.ex.newPostJoin(joinSpan, e.optional, e.p.optFilters, e.p.globalFilters)
	defer post.end()
	deliver := func(rows []sparql.Binding) error {
		return inChunks(post.apply(rows), func(chunk []sparql.Binding) error {
			emitted += len(chunk)
			return sink(outVars, chunk)
		})
	}
	if e.tail == nil {
		return deliver(acc.Rows)
	}
	// The fold is indexed once and every tail chunk probes it. A tail
	// row binds the subquery's whole projection, so the join key is
	// what every folded row binds of it.
	var idx *sparql.Index
	if acc != nil {
		idx = sparql.NewIndex(acc.Rows, sparql.CertainVars(acc.Rows, e.tail.ProjVars))
	}
	for {
		rows, ok := e.queue.pop()
		if !ok {
			break
		}
		if idx != nil {
			rows = idx.Join(nil, rows)
		}
		if err := deliver(rows); err != nil {
			return err
		}
	}
	e.endP1()
	// A terminal tail error surfaces after the partial stream: the
	// chunks already emitted are delivered, and the caller learns the
	// stream was truncated.
	if err := e.cause(nil); err != nil {
		return err
	}
	// The stream closed without an error, so the tail has landed: every
	// other landing was taken before the join.
	if !e.landed[e.tail] {
		e.land(<-e.landCh)
	}
	return nil
}

// inChunks calls f with successive slices of rows, each of at most
// streamChunkRows, until f fails.
func inChunks(rows []sparql.Binding, f func([]sparql.Binding) error) error {
	for len(rows) > streamChunkRows {
		if err := f(rows[:streamChunkRows]); err != nil {
			return err
		}
		rows = rows[streamChunkRows:]
	}
	if len(rows) == 0 {
		return nil
	}
	return f(rows)
}

// without returns sqs minus sq.
func without(sqs []*Subquery, sq *Subquery) []*Subquery {
	return slices.DeleteFunc(sqs, func(s *Subquery) bool { return s == sq })
}

// recordSubquerySpan appends one subquery's execution record under
// parent: identity (id, rendered query text), the estimate it was planned
// with, and the actuals observed (rows, requests, latency). The span is
// also left on the subquery, where ExplainAnalyze finds it to show
// estimate-vs-actual error per subquery. Nil-safe; returns the span
// for extra attributes.
func recordSubquerySpan(parent *trace.Span, sq *Subquery, text string, rows int, dur time.Duration, requests int) *trace.Span {
	if parent == nil {
		return nil
	}
	sp := parent.StartChild(sqLabel(sq))
	sq.record = sp
	sp.Set("query", text)
	sp.Set("est", int64(sq.EstCard))
	sp.Set("rows", int64(rows))
	sp.Set("requests", int64(requests))
	sp.Set("sources", int64(len(sq.Sources)))
	if sq.Optional {
		sp.Set("optional", true)
	}
	sp.SetDuration(dur)
	return sp
}

// sqLabel renders a subquery's identity for completeness reports and
// trace spans.
func sqLabel(sq *Subquery) string { return fmt.Sprintf("sq%d", sq.ID) }

// evalUnbound broadcasts one subquery to its sources and hands take
// each endpoint's rows the moment that endpoint answers, deduplicated
// against the rows already taken when the subquery calls for it (see
// dedupsFullProjection). The returned relation carries the header, the
// partition count and the drops; its rows are what take kept. The
// first error dg cannot absorb cancels the sibling requests instead of
// letting them burn their full network budget. A failed source's
// contribution that dg absorbs is dropped instead, and recorded on the
// relation itself (not in dg): the relation may be shared across
// queries through the subquery cache, and each consumer merges the
// drops into its own completeness report.
func (ex *Executor) evalUnbound(ctx context.Context, sq *Subquery, text string, dg *endpoint.Degrade, take func([]sparql.Binding)) (*Relation, error) {
	rel := &Relation{Vars: append([]sparql.Var(nil), sq.ProjVars...)}
	tasks := make([]federation.Task, len(sq.Sources))
	for i, ei := range sq.Sources {
		tasks[i] = federation.Task{EP: ex.Endpoints[ei], Query: text}
	}
	var seen map[string]struct{}
	if dedupsFullProjection(sq) {
		seen = map[string]struct{}{}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstErr error
	for sr := range federation.Run(ctx, tasks) {
		switch {
		case sr.Err == nil:
			rows := sr.Res.Rows
			if seen != nil {
				rows = sparql.Dedup(seen, rows, rel.Vars)
			}
			take(rows)
		case firstErr != nil:
			// The subquery already failed; this is its cancellation.
		case dg.Absorb(sr.Err):
			rel.Dropped = append(rel.Dropped, dg.DropRecord(tasks[sr.Index].EP.Name(), sqLabel(sq), "phase1", sr.Err))
		default:
			firstErr = sr.Err
			cancel()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// SkipEndpoint promises every required subquery keeps at least one
	// live source; a subquery that lost all of them is an error there
	// (BestEffort accepts the empty contribution).
	if n := len(rel.Dropped); n > 0 && n == len(tasks) && !sq.Optional &&
		dg.Policy() == endpoint.DegradeSkipEndpoint {
		return nil, fmt.Errorf("subquery %s lost all %d sources under skip-endpoint degradation", sqLabel(sq), n)
	}
	// A dropped endpoint contributed no partition: stamp the partitions
	// that actually produced rows, or JoinCost divides by phantom
	// partitions and the parallel-join fan-out looks cheaper than it is
	// for degraded queries.
	rel.Partitions = survivingPartitions(len(tasks), len(rel.Dropped))
	return rel, nil
}

// survivingPartitions is the partition count of a relation after
// degradation dropped some of its sources' contributions: only the
// endpoints that actually produced rows count for the join cost model,
// floored at one so empty relations stay valid cost inputs.
func survivingPartitions(sources, dropped int) int {
	n := sources - dropped
	if n < 1 {
		n = 1
	}
	return n
}

// pickMostSelective returns the index of the delayed subquery with the
// smallest refined cardinality: min(estimate, tightest found-binding
// set among its variables).
func (ex *Executor) pickMostSelective(delayed []*Subquery, fb *foundBindings) int {
	best, bestCard := 0, refinedCard(delayed[0], fb)
	for i := 1; i < len(delayed); i++ {
		if c := refinedCard(delayed[i], fb); c < bestCard {
			best, bestCard = i, c
		}
	}
	return best
}

func refinedCard(sq *Subquery, fb *foundBindings) float64 {
	c := sq.EstCard
	for _, v := range sq.Vars() {
		if fb.covered(v) {
			if n := float64(len(fb.sets[v])); n < c {
				c = n
			}
		}
	}
	return c
}

// runBound evaluates one delayed subquery with VALUES blocks appended
// for its most selective bound variable; unbound evaluation is the
// fallback when no variable is covered yet. Its requests, blocks and
// splits are added to m.
func (ex *Executor) runBound(ctx context.Context, sq *Subquery, fb *foundBindings, dg *endpoint.Degrade, m *Metrics) (*Relation, error) {
	start := time.Now()
	rel := &Relation{Vars: append([]sparql.Var(nil), sq.ProjVars...), Partitions: len(sq.Sources)}
	if len(sq.Sources) == 0 {
		rel.Partitions = 1
		sp := recordSubquerySpan(trace.SpanFrom(ctx), sq, sq.Query().String(), 0, time.Since(start), 0)
		sp.Set("decision", "no-sources")
		return rel, nil
	}

	// Choose the bound variable with the fewest candidate values.
	var bindVar sparql.Var
	bindN := -1
	for _, v := range sq.Vars() {
		if !fb.covered(v) {
			continue
		}
		if n := len(fb.sets[v]); bindN < 0 || n < bindN {
			bindVar, bindN = v, n
		}
	}

	// blocks are the VALUES chunks; a single nil block is the unbound
	// fallback (one plain query, nothing to bisect).
	var blocks [][]rdf.Term
	switch {
	case bindN < 0:
		blocks = [][]rdf.Term{nil}
	case bindN == 0:
		// No candidate values: a required subquery would make the join
		// empty; an optional one contributes nothing.
		sp := recordSubquerySpan(trace.SpanFrom(ctx), sq, sq.Query().String(), 0, time.Since(start), 0)
		sp.Set("decision", "empty-candidates")
		return rel, nil
	default:
		maxRows := ex.bindBlockSize
		if maxRows <= 0 {
			maxRows = defaultBindBlockSize
		}
		blocks = chunkValues(fb.valuesFor(bindVar), maxRows, boundBlockBytes)
		m.BoundBlocks += len(blocks)
	}

	sources := sq.Sources

	// One task per (source, block), sent as one federation.Run batch,
	// so each endpoint has a window of blocks in flight. A block the
	// endpoint rejects as oversized is bisected, and the halves go out
	// as a further batch; bisection terminates because each split
	// strictly halves the block, and a single-value block that still
	// fails is permanent. A failure dg cannot absorb cancels the batch.
	// An absorbed failure drops only the blocks that failed: the
	// source's other blocks keep their rows, and the source no longer
	// counts as a partition.
	type part struct {
		si     int // index into sources
		values []rdf.Term
		rows   []sparql.Binding
		halves []*part
	}
	var parts []*part
	for si := range sources {
		for _, b := range blocks {
			parts = append(parts, &part{si: si, values: b})
		}
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	srcFailed := make([]bool, len(sources))
	requests, splits, failed := 0, 0, 0
	var firstErr error
	for batch := parts; len(batch) > 0 && firstErr == nil; {
		tasks := make([]federation.Task, len(batch))
		for i, p := range batch {
			tasks[i] = federation.Task{EP: ex.Endpoints[sources[p.si]], Query: boundQuery(sq, bindVar, p.values)}
		}
		requests += len(tasks)
		for sr := range federation.Run(bctx, tasks) {
			p := batch[sr.Index]
			switch {
			case sr.Err == nil:
				p.rows = sr.Res.Rows
			case firstErr != nil:
				// The batch already failed; this is its cancellation.
			case len(p.values) > 1 && splittableBoundError(bctx, sr.Err):
				splits++
				mid := len(p.values) / 2
				p.halves = []*part{{si: p.si, values: p.values[:mid]}, {si: p.si, values: p.values[mid:]}}
			case dg.Absorb(sr.Err):
				dg.Drop(tasks[sr.Index].EP.Name(), sqLabel(sq), "phase2", sr.Err)
				if !srcFailed[p.si] {
					srcFailed[p.si] = true
					failed++
				}
			default:
				firstErr = sr.Err
				cancel()
			}
		}
		var next []*part
		for _, p := range batch {
			next = append(next, p.halves...)
		}
		batch = next
	}
	// Rows in (source, block) order, halves in place, so the relation
	// does not depend on which block answered first.
	var collect func(p *part)
	collect = func(p *part) {
		rel.Rows = append(rel.Rows, p.rows...)
		for _, h := range p.halves {
			collect(h)
		}
	}
	for _, p := range parts {
		collect(p)
	}
	m.Phase2Requests += requests
	m.ChunkSplits += splits
	if firstErr != nil {
		return nil, fmt.Errorf("sape phase 2 (%s): %w", sq, firstErr)
	}
	if failed > 0 && failed == len(sources) && !sq.Optional &&
		dg.Policy() == endpoint.DegradeSkipEndpoint {
		return nil, fmt.Errorf("sape phase 2 (%s): all %d sources failed under skip-endpoint degradation", sq, failed)
	}
	if dedupsFullProjection(sq) {
		rel.Rows = sparql.Dedup(nil, rel.Rows, rel.Vars)
	}
	rel.Partitions = survivingPartitions(len(sources), failed)
	sp := recordSubquerySpan(trace.SpanFrom(ctx), sq, sq.Query().String(), len(rel.Rows), time.Since(start), requests)
	if sp != nil {
		if bindN < 0 {
			sp.Set("decision", "unbound-fallback")
		} else {
			sp.Set("decision", fmt.Sprintf("bound ?%s (%d candidates, %d blocks)",
				bindVar, bindN, len(blocks)))
		}
		if splits > 0 {
			sp.Set("chunk_splits", int64(splits))
		}
		if failed > 0 {
			sp.Set("dropped_sources", int64(failed))
		}
	}
	return rel, nil
}

// chunkValues splits the candidate values into VALUES blocks capped by
// both row count and approximate serialized bytes.
func chunkValues(values []rdf.Term, maxRows, maxBytes int) [][]rdf.Term {
	var out [][]rdf.Term
	var cur []rdf.Term
	bytes := 0
	for _, t := range values {
		sz := len(t.String()) + 4
		if len(cur) > 0 && (len(cur) >= maxRows || bytes+sz > maxBytes) {
			out = append(out, cur)
			cur, bytes = nil, 0
		}
		cur = append(cur, t)
		bytes += sz
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// boundQuery renders sq with one VALUES block over bindVar; a nil
// values slice renders the plain (unbound) query.
func boundQuery(sq *Subquery, bindVar sparql.Var, values []rdf.Term) string {
	if values == nil {
		return sq.Query().String()
	}
	q := sq.Query()
	q.Where.Values = append(q.Where.Values, &sparql.ValuesBlock{
		Vars: []sparql.Var{bindVar},
		Rows: termRows(values),
	})
	return q.String()
}

// splittableBoundError reports whether a failed VALUES block is worth
// bisecting: the endpoint rejected the request as oversized or
// malformed (400/413/414), or the attempt timed out while the caller's
// own context is still live — halves are smaller and faster, so
// retrying them can succeed where the whole block cannot.
func splittableBoundError(ctx context.Context, err error) bool {
	var he *endpoint.HTTPError
	if errors.As(err, &he) {
		switch he.Status {
		case 400, 413, 414:
			return true
		}
	}
	return ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded)
}

// dedupsFullProjection reports whether sq's rows, collected from
// several endpoints, must be deduplicated: it projects every variable
// it binds, so its per-endpoint results are sets, and global
// deduplication reproduces exact RDF-merge semantics for triples
// replicated at several sources (e.g. shared class declarations).
// Projected subqueries keep their multiset semantics untouched.
func dedupsFullProjection(sq *Subquery) bool {
	return len(sq.Sources) > 1 && len(sq.ProjVars) == len(sq.Vars())
}

func termRows(terms []rdf.Term) [][]rdf.Term {
	out := make([][]rdf.Term, len(terms))
	for i, t := range terms {
		out[i] = []rdf.Term{t}
	}
	return out
}

// joinAll folds the relations in cost-based order with the parallel
// hash join, recording one child span per join step under sp.
func (ex *Executor) joinAll(sp *trace.Span, rels []*Relation) *Relation {
	if len(rels) == 0 {
		// The join identity: one empty row (SPARQL's empty group),
		// so OPTIONAL-only groups still left-join correctly.
		return &Relation{Rows: []sparql.Binding{{}}, Partitions: 1}
	}
	order := OptimizeJoinOrder(rels)
	acc := rels[order[0]]
	for _, i := range order[1:] {
		js := sp.StartChild("hash-join")
		js.Set("left_rows", int64(len(acc.Rows)))
		js.Set("right_rows", int64(len(rels[i].Rows)))
		acc = HashJoin(acc, rels[i], 0)
		js.Set("out_rows", int64(len(acc.Rows)))
		js.Set("partitions", int64(acc.Partitions))
		js.End()
	}
	return acc
}

// postJoin is the stage every chunk of the stream passes after the
// required join: each OPTIONAL group, pre-joined once, is left-joined
// onto the chunk in group order with its residual filters, then the
// group graph pattern's own residual filters apply. Row counts and time
// accumulate over the chunks and are stamped on one span per step when
// the stream ends.
type postJoin struct {
	groups []*optGroup
	keep   func(sparql.Binding) bool // the residual filters; nil without any
	span   *trace.Span
	// rows into and out of the residual filters
	filterIn, filterOut int
}

type optGroup struct {
	rel     *Relation
	check   func(sparql.Binding) bool
	span    *trace.Span
	in, out int
	took    time.Duration
}

func (ex *Executor) newPostJoin(sp *trace.Span, optional []*Relation, optFilters map[int][]sparql.Expr, filters []sparql.Expr) *postJoin {
	pj := &postJoin{keep: sparql.Predicate(filters, nil), span: sp}
	byGroup := map[int][]*Relation{}
	var order []int
	for _, rel := range optional {
		if _, ok := byGroup[rel.OptionalGroup]; !ok {
			order = append(order, rel.OptionalGroup)
		}
		byGroup[rel.OptionalGroup] = append(byGroup[rel.OptionalGroup], rel)
	}
	sort.Ints(order)
	for _, gid := range order {
		start := time.Now()
		ljs := sp.StartChild("left-join")
		ljs.Set("group", int64(gid))
		pj.groups = append(pj.groups, &optGroup{
			rel:   ex.joinAll(ljs, byGroup[gid]),
			check: sparql.Predicate(optFilters[gid], nil),
			span:  ljs,
			took:  time.Since(start),
		})
	}
	return pj
}

// apply runs one chunk of rows through the stage.
func (pj *postJoin) apply(rows []sparql.Binding) []sparql.Binding {
	if len(rows) == 0 {
		return rows
	}
	for _, g := range pj.groups {
		start := time.Now()
		g.in += len(rows)
		rows = sparql.LeftJoin(rows, g.rel.Rows, g.check)
		g.out += len(rows)
		g.took += time.Since(start)
	}
	if pj.keep != nil {
		pj.filterIn += len(rows)
		rows = sparql.Filter(rows, pj.keep)
		pj.filterOut += len(rows)
	}
	return rows
}

// end stamps the accumulated counts on the stage's spans.
func (pj *postJoin) end() {
	for _, g := range pj.groups {
		g.span.Set("left_rows", int64(g.in))
		g.span.Set("out_rows", int64(g.out))
		g.span.SetDuration(g.took)
	}
	if pj.keep != nil {
		if fs := pj.span.StartChild("filter"); fs != nil {
			fs.Set("rows_in", int64(pj.filterIn))
			fs.Set("rows_out", int64(pj.filterOut))
			fs.End()
		}
	}
}
