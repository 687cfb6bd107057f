package core

import (
	"sync"

	"lusail/internal/sparql"
)

// streamChunkRows caps the rows per emitted chunk, bounding how much a
// single giant endpoint response can occupy between join and sink.
const streamChunkRows = 1024

// StreamSink receives successive chunks of final (joined, filtered)
// rows. vars is the same header on every call. Returning an error
// cancels the remaining execution.
type StreamSink func(vars []sparql.Var, rows []sparql.Binding) error

// chunkQueue is an unbounded FIFO of row chunks between the tail's
// stream and the emit loop. Unbounded is deliberate: before the build
// side of the join is complete the emit loop is not draining, and
// blocking the tail's endpoints there gains nothing. The buffered worst
// case is the tail's whole relation, which a materializing executor
// would hold anyway; in the streaming steady state the queue stays
// near-empty.
type chunkQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks [][]sparql.Binding
	closed bool
}

func newChunkQueue() *chunkQueue {
	q := &chunkQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *chunkQueue) push(rows []sparql.Binding) {
	if len(rows) == 0 {
		return
	}
	q.mu.Lock()
	q.chunks = append(q.chunks, rows)
	q.mu.Unlock()
	q.cond.Signal()
}

// pushAll queues rows in chunks of at most streamChunkRows. A nil queue
// (a subquery that does not stream) takes nothing.
func (q *chunkQueue) pushAll(rows []sparql.Binding) {
	if q != nil {
		inChunks(rows, func(chunk []sparql.Binding) error { q.push(chunk); return nil })
	}
}

// close marks the stream complete; pop drains what remains. Nil-safe.
func (q *chunkQueue) close() {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks for the next chunk; ok is false once the queue is closed
// and drained. The emit loop is its only caller, so one waiter at most
// needs waking.
func (q *chunkQueue) pop() ([]sparql.Binding, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.chunks) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.chunks) == 0 {
		return nil, false
	}
	c := q.chunks[0]
	q.chunks = q.chunks[1:]
	return c, true
}

// pickStreamTail elects the phase-1 relation that will stream through
// the plan: required, with at least one source, and sharing no
// variable with any delayed subquery — its rows then feed neither the
// VALUES blocks of phase 2 nor the selectivity refinement, so
// excluding it from the found-bindings sets changes nothing except
// that nobody waits for it. Among the eligible, the largest estimated
// cardinality wins: streaming the biggest relation saves the most
// memory and time-to-first-row.
func pickStreamTail(phase1, delayed []*Subquery) *Subquery {
	delayedVars := map[sparql.Var]bool{}
	for _, d := range delayed {
		for _, v := range d.Vars() {
			delayedVars[v] = true
		}
	}
	var best *Subquery
	for _, sq := range phase1 {
		if sq.Optional || len(sq.Sources) == 0 {
			continue
		}
		shared := false
		for _, v := range sq.Vars() {
			if delayedVars[v] {
				shared = true
				break
			}
		}
		if shared {
			continue
		}
		if best == nil || sq.EstCard > best.EstCard {
			best = sq
		}
	}
	return best
}
