package core

import (
	"context"
	"fmt"
	"strings"

	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/stats"
)

// pairKey identifies an unordered pattern pair (i < j).
type pairKey struct{ i, j int }

func mkPair(i, j int) pairKey {
	if i > j {
		i, j = j, i
	}
	return pairKey{i, j}
}

// GJVReport is the outcome of Algorithm 1: the global join variables,
// the pattern pairs that must not share a subquery, and the number of
// check queries issued.
type GJVReport struct {
	// GJVs maps each global join variable to true.
	GJVs map[sparql.Var]bool
	// Conflicts holds every pattern pair straddling a GJV.
	Conflicts map[pairKey]bool
	// CheckQueries counts the SPARQL check queries sent to endpoints
	// (cache misses only).
	CheckQueries int
	// SummaryAnswers counts checks answered from the offline
	// statistics summaries instead of endpoint probes.
	SummaryAnswers int
}

// IsGJV reports whether v was detected as a global join variable.
func (r *GJVReport) IsGJV(v sparql.Var) bool { return r.GJVs[v] }

// role of a variable within a triple pattern.
type role uint8

const (
	roleSubject role = 1 << iota
	rolePredicate
	roleObject
)

func rolesOf(tp sparql.TriplePattern, v sparql.Var) role {
	var r role
	if tp.S.IsVar() && tp.S.Var == v {
		r |= roleSubject
	}
	if tp.P.IsVar() && tp.P.Var == v {
		r |= rolePredicate
	}
	if tp.O.IsVar() && tp.O.Var == v {
		r |= roleObject
	}
	return r
}

// Decomposer runs LADE: global-join-variable detection via check
// queries, followed by locality-aware decomposition. Check verdicts
// resolve through the shared plan knowledge (the paper caches ASK and
// check queries alike, §VI-B) before any probe is sent.
type Decomposer struct {
	Endpoints []endpoint.Endpoint
	Know      *federation.Knowledge
	// AssumeAllGlobal disables check queries and treats every shared
	// variable as a GJV; used by the LADE ablation experiment.
	AssumeAllGlobal bool
}

// NewDecomposer builds a decomposer over the endpoints; know may be nil.
func NewDecomposer(eps []endpoint.Endpoint, know *federation.Knowledge) *Decomposer {
	return &Decomposer{Endpoints: eps, Know: know}
}

// DetectGJVs implements Algorithm 1 over one conjunctive pattern list.
// sel supplies per-pattern relevant sources; typeOf maps variables to
// their rdf:type constant when the query declares one (used to narrow
// check queries, Fig. 6). A check failure dg absorbs flags its variable
// global; any other fails the detection.
func (d *Decomposer) DetectGJVs(ctx context.Context, dg *endpoint.Degrade, patterns []sparql.TriplePattern, sources [][]int, typeOf map[sparql.Var]rdf.Term) (*GJVReport, error) {
	rep := &GJVReport{GJVs: map[sparql.Var]bool{}, Conflicts: map[pairKey]bool{}}

	// Collect join entities: variables appearing in >= 2 patterns.
	occ := map[sparql.Var][]int{}
	for i, tp := range patterns {
		for _, v := range tp.Vars() {
			occ[v] = append(occ[v], i)
		}
	}

	type check struct {
		v            sparql.Var
		pair         pairKey
		tpFrom, tpTo sparql.TriplePattern
		query        string
	}
	var checks []check

	for v, idxs := range occ {
		if len(idxs) < 2 {
			continue
		}
		global := false
		// Lines 8-11: a pair with different relevant sources makes the
		// variable global with no endpoint communication.
		for a := 0; a < len(idxs) && !global; a++ {
			for b := a + 1; b < len(idxs); b++ {
				if !sameIntSlice(sources[idxs[a]], sources[idxs[b]]) {
					global = true
					break
				}
			}
		}
		if global || d.AssumeAllGlobal {
			d.markGJV(rep, v, idxs)
			continue
		}
		// Formulate check queries for every pair.
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				i, j := idxs[a], idxs[b]
				ri, rj := rolesOf(patterns[i], v), rolesOf(patterns[j], v)
				add := func(from, to int) {
					checks = append(checks, check{v, mkPair(i, j), patterns[from], patterns[to],
						CheckQuery(v, patterns[from], patterns[to], typeOf[v])})
				}
				switch {
				case ri&roleObject != 0 && rj&roleSubject != 0:
					add(i, j) // v flows object(i) -> subject(j): one direction.
				case ri&roleSubject != 0 && rj&roleObject != 0:
					add(j, i)
				default:
					// Same role (or predicate role): both directions
					// must be empty (paper: Objects/Subjects Only).
					add(i, j)
					add(j, i)
				}
			}
		}
	}

	if len(checks) == 0 {
		return rep, nil
	}

	// Ask every check at the relevant endpoints of its pair. A variable
	// already flagged needs none of its remaining checks.
	var pending []federation.Question
	var asked []sparql.Var // the variable each pending question decides
	flagged := map[sparql.Var]bool{}
	for _, c := range checks {
		if flagged[c.v] {
			continue
		}
		q := federation.Question{Kind: federation.KindCheck, Text: c.query,
			Summary: func(sum *stats.Summary) (float64, bool) {
				nonEmpty, ok := sum.CheckNonEmpty(c.v, c.tpFrom, c.tpTo, typeOf[c.v])
				return federation.Truth(nonEmpty), ok
			}}
		for _, ei := range sources[c.pair.i] {
			q.EP = d.Endpoints[ei]
			nonEmpty, tier := d.Know.Lookup(&q)
			switch tier {
			case federation.TierNone:
				pending = append(pending, q)
				asked = append(asked, c.v)
				continue
			case federation.TierSummary:
				rep.SummaryAnswers++
			}
			if nonEmpty != 0 {
				flagged[c.v] = true
			}
		}
	}
	rep.CheckQueries = len(pending)
	answers, err := d.Know.Probe(ctx, dg, "gjv-checks", pending)
	if err != nil {
		return nil, err
	}
	for i, a := range answers {
		// An unanswerable check conservatively flags the variable global:
		// over-flagging a GJV only splits subqueries more finely, never
		// produces wrong answers.
		if !a.OK || a.Value != 0 {
			flagged[asked[i]] = true
		}
	}
	for v := range flagged {
		d.markGJV(rep, v, occ[v])
	}
	return rep, nil
}

// markGJV records v as global and, per the paper ("once a common
// variable is found to be a GJV, the triple patterns cannot be
// combined in the same subquery even for endpoints that return an
// empty difference"), flags every pattern pair sharing v as a
// conflict.
func (d *Decomposer) markGJV(rep *GJVReport, v sparql.Var, idxs []int) {
	rep.GJVs[v] = true
	for a := 0; a < len(idxs); a++ {
		for b := a + 1; b < len(idxs); b++ {
			rep.Conflicts[mkPair(idxs[a], idxs[b])] = true
		}
	}
}

// CheckQuery builds the paper's Fig. 6 check query testing whether any
// instance of v satisfying tpFrom at an endpoint is missing locally
// from tpTo: SELECT ?v WHERE { [type] tpFrom' FILTER NOT EXISTS
// { tpTo' } } LIMIT 1. In tpFrom, constants are kept (they narrow the
// instance set); in tpTo, every position except the predicate and v is
// replaced with a fresh variable, because only local presence in the
// role matters.
func CheckQuery(v sparql.Var, tpFrom, tpTo sparql.TriplePattern, typ rdf.Term) string {
	fresh := 0
	rename := func(e sparql.Elem, keepConst bool) string {
		if e.IsVar() {
			if e.Var == v {
				return "?v"
			}
			fresh++
			return fmt.Sprintf("?x%d", fresh)
		}
		if keepConst {
			return e.Term.String()
		}
		fresh++
		return fmt.Sprintf("?x%d", fresh)
	}
	var b strings.Builder
	b.WriteString("SELECT ?v WHERE { ")
	if !typ.IsZero() {
		fmt.Fprintf(&b, "?v <%s> %s . ", rdf.RDFType, typ.String())
	}
	fmt.Fprintf(&b, "%s %s %s . ",
		rename(tpFrom.S, true), rename(tpFrom.P, true), rename(tpFrom.O, true))
	fmt.Fprintf(&b, "FILTER NOT EXISTS { %s %s %s . } ",
		rename(tpTo.S, false), rename(tpTo.P, true), rename(tpTo.O, false))
	b.WriteString("} LIMIT 1")
	return b.String()
}

// TypeConstraints extracts variables constrained by an rdf:type
// pattern with a constant class, used to narrow check queries.
func TypeConstraints(patterns []sparql.TriplePattern) map[sparql.Var]rdf.Term {
	out := map[sparql.Var]rdf.Term{}
	for _, tp := range patterns {
		if tp.S.IsVar() && !tp.P.IsVar() && tp.P.Term.Value == rdf.RDFType && !tp.O.IsVar() {
			out[tp.S.Var] = tp.O.Term
		}
	}
	return out
}
