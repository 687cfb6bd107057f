// Package store implements the in-memory indexed triple store that
// backs every SPARQL endpoint in the federation. Terms are dictionary
// encoded to 32-bit ids; subject, predicate, and object posting lists
// support all eight triple-pattern access paths.
package store

import (
	"sort"
	"sync"

	"lusail/internal/rdf"
)

type id = uint32

type encTriple struct{ s, p, o id }

// Store is an in-memory RDF dataset with SPO indexes and per-predicate
// statistics. It is safe for concurrent use; writes take an exclusive
// lock, reads a shared lock. The read methods on Store lock per call
// and must not be nested (a callback of ForEachMatch calling back into
// the store deadlocks behind a waiting writer); multi-step readers
// take the lock once with Read and go through the View.
type Store struct {
	mu    sync.RWMutex
	dict  map[rdf.Term]id
	terms []rdf.Term

	triples []encTriple
	set     map[encTriple]int32 // triple -> position in triples
	dead    map[int32]struct{}  // removed positions (slots stay, lists don't)

	sIdx map[id][]int32 // subject -> triple positions
	pIdx map[id][]int32 // predicate -> triple positions
	oIdx map[id][]int32 // object -> triple positions

	// statsOnce guards the lazily computed VoID-style statistics used
	// by SPLENDID-like baselines.
	statsMu sync.Mutex
	stats   map[id]*PredicateStats
}

// PredicateStats summarizes one predicate, in the spirit of VoID
// descriptions used by index-based federators.
type PredicateStats struct {
	Predicate        rdf.Term
	Triples          int
	DistinctSubjects int
	DistinctObjects  int
}

// New returns an empty store.
func New() *Store {
	return &Store{
		dict: make(map[rdf.Term]id),
		set:  make(map[encTriple]int32),
		dead: make(map[int32]struct{}),
		sIdx: make(map[id][]int32),
		pIdx: make(map[id][]int32),
		oIdx: make(map[id][]int32),
	}
}

// FromGraph builds a store from a graph.
func FromGraph(g rdf.Graph) *Store {
	st := New()
	st.AddGraph(g)
	return st
}

func (st *Store) intern(t rdf.Term) id {
	if i, ok := st.dict[t]; ok {
		return i
	}
	i := id(len(st.terms))
	st.dict[t] = i
	st.terms = append(st.terms, t)
	return i
}

// Add inserts a triple; duplicates are ignored.
func (st *Store) Add(t rdf.Triple) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.addLocked(t)
}

// AddGraph inserts all triples of g.
func (st *Store) AddGraph(g rdf.Graph) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, t := range g {
		st.addLocked(t)
	}
}

func (st *Store) addLocked(t rdf.Triple) {
	et := encTriple{st.intern(t.S), st.intern(t.P), st.intern(t.O)}
	if _, dup := st.set[et]; dup {
		return
	}
	pos := int32(len(st.triples))
	st.triples = append(st.triples, et)
	st.set[et] = pos
	st.sIdx[et.s] = append(st.sIdx[et.s], pos)
	st.pIdx[et.p] = append(st.pIdx[et.p], pos)
	st.oIdx[et.o] = append(st.oIdx[et.o], pos)
	st.statsMu.Lock()
	st.stats = nil // invalidate cached statistics
	st.statsMu.Unlock()
}

// Remove deletes a triple; absent triples are ignored. The reverse of
// Add, so endpoints whose data churns mid-run (insert/delete batches)
// stay queryable without a rebuild. Reports whether the triple was
// present.
func (st *Store) Remove(t rdf.Triple) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.removeLocked(t)
}

func (st *Store) removeLocked(t rdf.Triple) bool {
	s, ok := st.dict[t.S]
	if !ok {
		return false
	}
	p, ok := st.dict[t.P]
	if !ok {
		return false
	}
	o, ok := st.dict[t.O]
	if !ok {
		return false
	}
	et := encTriple{s, p, o}
	pos, ok := st.set[et]
	if !ok {
		return false
	}
	delete(st.set, et)
	// The slot in triples stays (other positions would shift otherwise);
	// the posting lists and the dead set are the source of truth.
	st.dead[pos] = struct{}{}
	st.sIdx[et.s] = removePos(st.sIdx[et.s], pos)
	st.pIdx[et.p] = removePos(st.pIdx[et.p], pos)
	st.oIdx[et.o] = removePos(st.oIdx[et.o], pos)
	if len(st.pIdx[et.p]) == 0 {
		delete(st.pIdx, et.p) // Predicates() must not list extinct predicates
	}
	st.statsMu.Lock()
	st.stats = nil // invalidate cached statistics
	st.statsMu.Unlock()
	return true
}

// removePos drops one position from a posting list, preserving order.
func removePos(list []int32, pos int32) []int32 {
	for i, p := range list {
		if p == pos {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// Apply removes then inserts under one exclusive lock, so no reader
// sees the batch half applied.
func (st *Store) Apply(insert, remove rdf.Graph) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, t := range remove {
		st.removeLocked(t)
	}
	for _, t := range insert {
		st.addLocked(t)
	}
}

// View is the store as seen under one read lock: every call observes
// the same state and none locks again, so calls may nest (a match
// callback issuing further matches). It is valid only inside the Read
// call that produced it.
type View struct{ st *Store }

// Read runs fn with the read lock held once for its whole duration.
func (st *Store) Read(fn func(View)) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	fn(View{st})
}

// ForEachMatch is Store.ForEachMatch without the lock.
func (v View) ForEachMatch(s, p, o rdf.Term, fn func(rdf.Triple) bool) {
	v.st.forEachMatch(s, p, o, fn)
}

// CountMatch is Store.CountMatch without the lock.
func (v View) CountMatch(s, p, o rdf.Term) int { return v.st.countMatch(s, p, o) }

// EstimateMatch is Store.EstimateMatch without the lock.
func (v View) EstimateMatch(s, p, o rdf.Term) int { return v.st.estimateMatch(s, p, o) }

// Len returns the number of distinct triples.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.set)
}

// Contains reports membership of an exact triple.
func (st *Store) Contains(t rdf.Triple) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok := st.dict[t.S]
	if !ok {
		return false
	}
	p, ok := st.dict[t.P]
	if !ok {
		return false
	}
	o, ok := st.dict[t.O]
	if !ok {
		return false
	}
	_, ok = st.set[encTriple{s, p, o}]
	return ok
}

func (st *Store) decode(et encTriple) rdf.Triple {
	return rdf.Triple{S: st.terms[et.s], P: st.terms[et.p], O: st.terms[et.o]}
}

// lookup returns the id of t and whether it is known. A zero term acts
// as a wildcard and reports (0, true, true).
func (st *Store) lookup(t rdf.Term) (i id, wild, ok bool) {
	if t.IsZero() {
		return 0, true, true
	}
	i, ok = st.dict[t]
	return i, false, ok
}

// ForEachMatch calls fn for every triple matching the pattern, where a
// zero Term is a wildcard. Iteration stops early when fn returns
// false.
func (st *Store) ForEachMatch(s, p, o rdf.Term, fn func(rdf.Triple) bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.forEachMatch(s, p, o, fn)
}

func (st *Store) forEachMatch(s, p, o rdf.Term, fn func(rdf.Triple) bool) {
	si, sw, sok := st.lookup(s)
	pi, pw, pok := st.lookup(p)
	oi, ow, ook := st.lookup(o)
	if !sok || !pok || !ook {
		return
	}
	match := func(et encTriple) bool {
		return (sw || et.s == si) && (pw || et.p == pi) && (ow || et.o == oi)
	}
	// Fully bound: a set lookup.
	if !sw && !pw && !ow {
		et := encTriple{si, pi, oi}
		if _, ok := st.set[et]; ok {
			fn(st.decode(et))
		}
		return
	}
	// Pick the smallest applicable posting list.
	var list []int32
	switch {
	case !sw && !ow:
		a, b := st.sIdx[si], st.oIdx[oi]
		if len(a) <= len(b) {
			list = a
		} else {
			list = b
		}
	case !sw:
		list = st.sIdx[si]
	case !ow:
		list = st.oIdx[oi]
	case !pw:
		list = st.pIdx[pi]
	default:
		for pos, et := range st.triples {
			if _, gone := st.dead[int32(pos)]; gone {
				continue
			}
			if !fn(st.decode(et)) {
				return
			}
		}
		return
	}
	for _, pos := range list {
		et := st.triples[pos]
		if match(et) {
			if !fn(st.decode(et)) {
				return
			}
		}
	}
}

// Match materializes all triples matching the pattern.
func (st *Store) Match(s, p, o rdf.Term) []rdf.Triple {
	var out []rdf.Triple
	st.ForEachMatch(s, p, o, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// CountMatch counts matching triples without materializing them.
func (st *Store) CountMatch(s, p, o rdf.Term) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.countMatch(s, p, o)
}

func (st *Store) countMatch(s, p, o rdf.Term) int {
	// Fast paths for single-position patterns.
	si, sw, sok := st.lookup(s)
	pi, pw, pok := st.lookup(p)
	oi, ow, ook := st.lookup(o)
	if !sok || !pok || !ook {
		return 0
	}
	switch {
	case sw && pw && ow:
		return len(st.set)
	case sw && !pw && ow:
		return len(st.pIdx[pi])
	case !sw && pw && ow:
		return len(st.sIdx[si])
	case sw && pw && !ow:
		return len(st.oIdx[oi])
	}
	n := 0
	st.forEachMatch(s, p, o, func(rdf.Triple) bool { n++; return true })
	return n
}

// EstimateMatch returns an upper bound on the number of triples
// matching the pattern using only index sizes; it never scans.
func (st *Store) EstimateMatch(s, p, o rdf.Term) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.estimateMatch(s, p, o)
}

func (st *Store) estimateMatch(s, p, o rdf.Term) int {
	si, sw, sok := st.lookup(s)
	pi, pw, pok := st.lookup(p)
	oi, ow, ook := st.lookup(o)
	if !sok || !pok || !ook {
		return 0
	}
	est := len(st.set)
	if !sw && len(st.sIdx[si]) < est {
		est = len(st.sIdx[si])
	}
	if !pw && len(st.pIdx[pi]) < est {
		est = len(st.pIdx[pi])
	}
	if !ow && len(st.oIdx[oi]) < est {
		est = len(st.oIdx[oi])
	}
	return est
}

// Predicates returns all distinct predicates in deterministic order.
func (st *Store) Predicates() []rdf.Term {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]rdf.Term, 0, len(st.pIdx))
	for pid := range st.pIdx {
		out = append(out, st.terms[pid])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// PredicateStats returns VoID-style statistics for predicate p, or nil
// when the predicate does not occur.
func (st *Store) PredicateStats(p rdf.Term) *PredicateStats {
	st.buildStats()
	st.mu.RLock()
	defer st.mu.RUnlock()
	pid, ok := st.dict[p]
	if !ok {
		return nil
	}
	st.statsMu.Lock()
	defer st.statsMu.Unlock()
	return st.stats[pid]
}

// AllPredicateStats returns statistics for every predicate.
func (st *Store) AllPredicateStats() []*PredicateStats {
	st.buildStats()
	st.statsMu.Lock()
	defer st.statsMu.Unlock()
	out := make([]*PredicateStats, 0, len(st.stats))
	for _, ps := range st.stats {
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Predicate.Compare(out[j].Predicate) < 0
	})
	return out
}

func (st *Store) buildStats() {
	st.statsMu.Lock()
	built := st.stats != nil
	st.statsMu.Unlock()
	if built {
		return
	}
	st.mu.RLock()
	stats := make(map[id]*PredicateStats, len(st.pIdx))
	for pid, list := range st.pIdx {
		subj := make(map[id]struct{})
		obj := make(map[id]struct{})
		for _, pos := range list {
			et := st.triples[pos]
			subj[et.s] = struct{}{}
			obj[et.o] = struct{}{}
		}
		stats[pid] = &PredicateStats{
			Predicate:        st.terms[pid],
			Triples:          len(list),
			DistinctSubjects: len(subj),
			DistinctObjects:  len(obj),
		}
	}
	st.mu.RUnlock()
	st.statsMu.Lock()
	if st.stats == nil {
		st.stats = stats
	}
	st.statsMu.Unlock()
}

// SubjectAuthorities returns the set of IRI authorities appearing in
// subject position for predicate p; HiBISCuS-style summaries use it to
// prune sources. Objects returns the object-side set when objects is
// true.
func (st *Store) Authorities(p rdf.Term, objects bool) map[string]struct{} {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make(map[string]struct{})
	pid, ok := st.dict[p]
	if !ok {
		return out
	}
	for _, pos := range st.pIdx[pid] {
		et := st.triples[pos]
		var t rdf.Term
		if objects {
			t = st.terms[et.o]
		} else {
			t = st.terms[et.s]
		}
		if a := t.Authority(); a != "" {
			out[a] = struct{}{}
		}
	}
	return out
}

// Triples returns a copy of all triples; intended for tests and small
// stores.
func (st *Store) Triples() rdf.Graph {
	st.mu.RLock()
	defer st.mu.RUnlock()
	g := make(rdf.Graph, 0, len(st.set))
	for pos, et := range st.triples {
		if _, gone := st.dead[int32(pos)]; gone {
			continue
		}
		g = append(g, st.decode(et))
	}
	return g
}
