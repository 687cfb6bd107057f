// Package testfed builds small federations used by tests across the
// repository, including the paper's running example (Figure 1): two
// university endpoints with an interlink (Tim at EP2 got his PhD from
// MIT, whose address lives at EP1).
package testfed

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// NS is the vocabulary namespace of the fixture.
const NS = "http://ex/"

// IRI abbreviates fixture IRIs.
func IRI(local string) rdf.Term { return rdf.IRI(NS + local) }

// Universities builds the Figure-1 federation: EP1 hosts MIT, EP2
// hosts CMU; EP2's professor Tim holds a PhD from MIT, so resolving
// his alma mater's address requires traversing the interlink.
func Universities() (ep1, ep2 *endpoint.Local) {
	typ := rdf.IRI(rdf.RDFType)
	adv, takes, teaches := IRI("advisor"), IRI("takesCourse"), IRI("teacherOf")
	phd, addr := IRI("PhDDegreeFrom"), IRI("address")
	grad := IRI("GraduateStudent")

	st1 := store.New() // MIT
	st1.Add(rdf.T(IRI("Lee"), typ, grad))
	st1.Add(rdf.T(IRI("Lee"), adv, IRI("Ben")))
	st1.Add(rdf.T(IRI("Lee"), takes, IRI("OS")))
	st1.Add(rdf.T(IRI("Ben"), teaches, IRI("OS")))
	st1.Add(rdf.T(IRI("Ben"), phd, IRI("MIT")))
	st1.Add(rdf.T(IRI("Sam"), typ, grad))
	st1.Add(rdf.T(IRI("Sam"), adv, IRI("Ann"))) // Ann teaches nothing: GJV false positive for ?P
	st1.Add(rdf.T(IRI("Sam"), takes, IRI("OS")))
	st1.Add(rdf.T(IRI("Ann"), phd, IRI("MIT")))
	st1.Add(rdf.T(IRI("MIT"), addr, rdf.Literal("XXX")))

	st2 := store.New() // CMU
	st2.Add(rdf.T(IRI("Kim"), typ, grad))
	st2.Add(rdf.T(IRI("Kim"), adv, IRI("Joy")))
	st2.Add(rdf.T(IRI("Kim"), adv, IRI("Tim")))
	st2.Add(rdf.T(IRI("Kim"), takes, IRI("DB")))
	st2.Add(rdf.T(IRI("Joy"), teaches, IRI("DB")))
	st2.Add(rdf.T(IRI("Joy"), phd, IRI("CMU")))
	st2.Add(rdf.T(IRI("Tim"), phd, IRI("MIT"))) // interlink to EP1
	st2.Add(rdf.T(IRI("CMU"), addr, rdf.Literal("CCCC")))

	return endpoint.NewLocal("EP1", st1), endpoint.NewLocal("EP2", st2)
}

// Qa is the paper's Figure-2 query over the university federation:
// students taking a course taught by their advisor, with the URI and
// address of the advisor's alma mater.
const Qa = `SELECT ?S ?P ?U ?A WHERE {
	?S <http://ex/advisor> ?P .
	?S <http://ex/takesCourse> ?C .
	?P <http://ex/teacherOf> ?C .
	?P <http://ex/PhDDegreeFrom> ?U .
	?U <http://ex/address> ?A .
}`

// QaChain drops the teacherOf pattern from Qa; ?P then joins only
// advisor with PhDDegreeFrom, which the fixture keeps endpoint-local,
// so only ?U is a GJV.
const QaChain = `SELECT ?S ?P ?U ?A WHERE {
	?S <http://ex/advisor> ?P .
	?S <http://ex/takesCourse> ?C .
	?P <http://ex/PhDDegreeFrom> ?U .
	?U <http://ex/address> ?A .
}`

// UnionStore merges the data of all endpoints; evaluating a query over
// it is the ground truth for the supported fragment.
func UnionStore(eps ...*endpoint.Local) *store.Store {
	st := store.New()
	for _, ep := range eps {
		st.AddGraph(ep.Store().Triples())
	}
	return st
}

// RandomFederation builds 2-3 small endpoints over predicates p0..p2
// whose entities e<ep>_<n> sometimes link to another endpoint's.
func RandomFederation(r *rand.Rand) []*endpoint.Local {
	n := 2 + r.Intn(2)
	locals := make([]*endpoint.Local, n)
	for e := 0; e < n; e++ {
		st := store.New()
		for i := 0; i < 12+r.Intn(12); i++ {
			s := IRI(fmt.Sprintf("e%d_%d", e, r.Intn(5)))
			p := IRI(fmt.Sprintf("p%d", r.Intn(3)))
			var o rdf.Term
			if r.Intn(3) == 0 {
				o = IRI(fmt.Sprintf("e%d_%d", r.Intn(n), r.Intn(5)))
			} else {
				o = IRI(fmt.Sprintf("e%d_%d", e, r.Intn(5)))
			}
			st.Add(rdf.T(s, p, o))
		}
		locals[e] = endpoint.NewLocal(fmt.Sprintf("ep%d", e), st)
	}
	return locals
}

// RandomFullQuery builds a query over RandomFederation's predicates
// exercising the full supported fragment: a connected BGP, optionally
// an OPTIONAL group, a UNION block (whose alternatives may bind
// different variables), a FILTER, and DISTINCT.
func RandomFullQuery(r *rand.Rand) string {
	vars := []string{"a", "b", "c", "d", "e", "f"}
	next := 1
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if r.Intn(4) == 0 {
		sb.WriteString("DISTINCT ")
	}
	sb.WriteString("* WHERE {\n")
	// Base BGP: 1-2 connected patterns.
	base := 1 + r.Intn(2)
	for i := 0; i < base; i++ {
		s := vars[r.Intn(next)]
		o := vars[next]
		next++
		fmt.Fprintf(&sb, "?%s <http://ex/p%d> ?%s .\n", s, r.Intn(3), o)
	}
	// OPTIONAL sharing a bound variable.
	if r.Intn(2) == 0 {
		s := vars[r.Intn(next)]
		o := vars[next]
		next++
		fmt.Fprintf(&sb, "OPTIONAL { ?%s <http://ex/p%d> ?%s . }\n", s, r.Intn(3), o)
	}
	// UNION over two predicates. The second alternative sometimes
	// binds an existing variable instead of the fresh one, so the
	// UNION's rows leave a shared variable bound in some rows only.
	if r.Intn(2) == 0 {
		s := vars[r.Intn(next)]
		o, o2 := vars[next], vars[next]
		if r.Intn(3) == 0 {
			o2 = vars[r.Intn(next)]
		}
		next++
		fmt.Fprintf(&sb, "{ ?%s <http://ex/p0> ?%s } UNION { ?%s <http://ex/p1> ?%s }\n", s, o, s, o2)
	}
	// FILTER over bound variables.
	switch r.Intn(3) {
	case 0:
		v := vars[r.Intn(next)]
		fmt.Fprintf(&sb, "FILTER (STRSTARTS(STR(?%s), \"http://ex/e0\"))\n", v)
	case 1:
		a, b := vars[r.Intn(next)], vars[r.Intn(next)]
		fmt.Fprintf(&sb, "FILTER (?%s != ?%s)\n", a, b)
	}
	sb.WriteString("}")
	return sb.String()
}

// Canon renders results as a sorted, deterministic list of rows for
// comparisons in tests.
func Canon(r *sparql.Results) []string {
	vars := append([]sparql.Var(nil), r.Vars...)
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	rows := make([]string, 0, len(r.Rows))
	for _, b := range r.Rows {
		var parts []string
		for _, v := range vars {
			if t, ok := b[v]; ok {
				parts = append(parts, string(v)+"="+t.String())
			} else {
				parts = append(parts, string(v)+"=UNDEF")
			}
		}
		rows = append(rows, strings.Join(parts, " "))
	}
	sort.Strings(rows)
	return rows
}
