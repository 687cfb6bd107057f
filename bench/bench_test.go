package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/testfed"
)

func TestPercentileAndQuartiles(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 100}, {90, 90}, {1, 10}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	// Reference values are Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{160, 10, 40, 20, 80}, 15, 120},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpanUnionAndSelfTime(t *testing.T) {
	parent := interval{100, 200}
	children := []interval{
		{90, 110},  // starts before the parent: clipped to 100..110
		{105, 120}, // overlaps the first
		{150, 160}, // disjoint
		{155, 158}, // nested
		{195, 250}, // runs past the parent: clipped to 195..200
		{300, 400}, // outside
	}
	if got := unionLength(children, parent.start, parent.end); got != 20+10+5 {
		t.Errorf("unionLength = %d, want 35", got)
	}
	if got := selfTime(parent, children); got != 65 {
		t.Errorf("selfTime = %d, want 65", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d", got)
	}
}

// TestSpanLayerMetrics checks the trace arithmetic on two hand-built
// requests: wait is the union of remote spans inside the root, self is
// the rest, and request kinds are counted per traced request.
func TestSpanLayerMetrics(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	spans := []span{
		{Request: 0, ID: 1, Name: "query", StartNS: 0, EndNS: ms(100)},
		{Request: 0, ID: 2, Parent: 1, Name: "remote", Kind: "version", StartNS: ms(0), EndNS: ms(10)},
		{Request: 0, ID: 3, Parent: 1, Name: "remote", Kind: "phase1", StartNS: ms(20), EndNS: ms(60)},
		{Request: 0, ID: 4, Parent: 1, Name: "remote", Kind: "phase1", StartNS: ms(30), EndNS: ms(50)},
		{Request: 1, ID: 5, Name: "query", StartNS: ms(100), EndNS: ms(300)},
		{Request: 1, ID: 6, Parent: 5, Name: "remote", Kind: "phase2", StartNS: ms(150), EndNS: ms(250)},
		{Request: -1, ID: 7, Name: "remote", Kind: "harvest", StartNS: 0, EndNS: ms(1000)},
	}
	metrics := []core.Metrics{
		{Execution: 80 * time.Millisecond, Subqueries: 3, Delayed: 1},
		{Execution: 120 * time.Millisecond, Subqueries: 1},
	}
	v := map[string]float64{}
	spanLayerMetrics(v, spans, metrics)
	want := map[string]float64{
		"endpoint.wait_ms":          75,        // (10+40) and 100, over 2 requests
		"endpoint.wait_share":       0.5,       // 150 of 300 ms
		"core.self_ms":              75,        // 50 and 100
		"endpoint.request_p50_ms":   40,        // of 20, 40, 100; the HEAD probe is not a request
		"core.sape.phase1_requests": 1,         // 2 over 2 requests
		"core.sape.phase2_requests": 0.5,       // 1 over 2 requests
		"core.sape.exec_ms":         100,       // mean of 80 and 120
		"core.sape.delayed_share":   1.0 / 4.0, // 1 of 4 subqueries
		"federation.ask_requests":   0,
	}
	for name, w := range want {
		if got := v[name]; got != w {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}

func TestFirstRowReader(t *testing.T) {
	doc := `{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri","value":"a"}}]}}`
	for _, r := range []io.Reader{strings.NewReader(doc), iotest.OneByteReader(strings.NewReader(doc))} {
		fr := &firstRowReader{r: r}
		buf := make([]byte, 7)
		var read int
		for !fr.found {
			n, err := fr.Read(buf)
			read += n
			if err != nil {
				t.Fatalf("row not found before %v", err)
			}
		}
		if open := strings.Index(doc, `[{`) + 2; read < open || read > open+len(buf) {
			t.Errorf("first row stamped after %d bytes, row opens at %d", read, open)
		}
	}
	empty := &firstRowReader{r: strings.NewReader(`{"head":{"vars":[]},"results":{"bindings":[]}}`)}
	if _, err := io.ReadAll(empty); err != nil || !empty.found {
		t.Errorf("empty answer: found=%v err=%v, want the stamp at end of body", empty.found, err)
	}
}

func TestParseMetrics(t *testing.T) {
	page := `# HELP lusail_cache_hits_total hits
# TYPE lusail_cache_hits_total counter
lusail_cache_hits_total{cache="subquery"} 7 # {trace_id="abc"} 1 1.7e9
lusail_cache_hits_total{cache="ask"} 2
lusail_cache_hits_total{cache="count",note="a b"} 3
lusail_shed_requests_total 0
`
	m, err := parseMetrics(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if got := sumSeries(m, "lusail_cache_hits_total", `cache="subquery"`); got != 7 {
		t.Errorf("subquery hits = %v", got)
	}
	if got := sumSeries(m, "lusail_cache_hits_total"); got != 12 {
		t.Errorf("all hits = %v", got)
	}
	if got, ok := m["lusail_shed_requests_total"]; !ok || got != 0 {
		t.Errorf("label-less series = %v, %v", got, ok)
	}
}

// TestClassify pins the decorator's request kinds to the query shapes
// the engine actually sends.
func TestClassify(t *testing.T) {
	x, y := sparql.Elem{Var: "x"}, sparql.Elem{Var: "y"}
	p := sparql.Elem{Term: rdf.IRI("http://ex/p")}
	tp := sparql.TriplePattern{S: x, P: p, O: y}
	bound, err := sparql.Parse(`SELECT ?x WHERE { VALUES ?x { <http://ex/a> } ?x <http://ex/p> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	for query, want := range map[string]string{
		federation.AskQueryFor(tp):                     "ask",
		core.CheckQuery("x", tp, tp, rdf.Term{}):       "check",
		core.CountQuery(tp, nil):                       "count",
		bound.String():                                 "phase2",
		`SELECT ?x ?y WHERE { ?x <http://ex/p> ?y . }`: "phase1",
	} {
		if got := classify(query); got != want {
			t.Errorf("classify(%q) = %s, want %s", query, got, want)
		}
	}
}

// TestNonceKeepsAnswers: on every query of every cache-bypassing
// workload the rewritten text parses, differs per nonce, and has the
// plain query's answer over the union graph (scale 1).
func TestNonceKeepsAnswers(t *testing.T) {
	for _, w := range workloads {
		if !w.nonce {
			continue
		}
		reqs, err := newRequests(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, graphs := w.federation(1)
		var locals []*endpoint.Local
		for _, g := range graphs {
			locals = append(locals, endpoint.NewLocal("ep", store.FromGraph(g)))
		}
		oracle := endpoint.NewLocal("oracle", testfed.UnionStore(locals...))
		for q, nq := range w.queries {
			exp, err := oracleAnswer(oracle, nq.text)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, nq.name, err)
			}
			a, b := reqs.textOf(q, 1), reqs.textOf(q, 2)
			if a == b || !strings.Contains(a, "urn:bench:nonce:1") {
				t.Errorf("%s %s: nonce not in the text or not unique", w.name, nq.name)
			}
			got, err := oracleAnswer(oracle, a)
			if err != nil {
				t.Errorf("%s %s: nonce'd query: %v\n%s", w.name, nq.name, err, a)
				continue
			}
			if got.rows != exp.rows || got.hash != exp.hash || len(got.anyOf) != len(exp.anyOf) {
				t.Errorf("%s %s: nonce changed the answer: %d rows (hash %x), plain %d (%x)",
					w.name, nq.name, got.rows, got.hash, exp.rows, exp.hash)
			}
			if exp.rows == 0 {
				t.Errorf("%s %s: empty answer at scale 1 checks nothing", w.name, nq.name)
			}
		}
	}
}

func TestSchedulesAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, other := w.sequence(7), w.sequence(7), w.sequence(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different sequence", w.name)
		}
		if w.order != roundRobin && reflect.DeepEqual(a, other) {
			t.Errorf("%s: different seeds, same sequence", w.name)
		}
		// Whatever the order, every cycle (or Zipf block) deals the same
		// mix, so per-query shares do not depend on the seed.
		cycle := len(w.queries)
		if w.order == zipfBlocks {
			cycle = zipfBlock
		}
		if len(a)%cycle != 0 {
			t.Fatalf("%s: sequence length %d is not whole cycles of %d", w.name, len(a), cycle)
		}
		count := func(seq []int) []int {
			c := make([]int, len(w.queries))
			for _, q := range seq {
				c[q]++
			}
			return c
		}
		first := count(a[:cycle])
		for at := cycle; at < len(a); at += cycle {
			if got := count(a[at : at+cycle]); !reflect.DeepEqual(got, first) {
				t.Fatalf("%s: cycle at %d deals %v, first cycle %v", w.name, at, got, first)
			}
		}
		if !reflect.DeepEqual(first, count(other[:cycle])) {
			t.Errorf("%s: mix differs between seeds", w.name)
		}
	}
	if got := zipfCounts(4, 100); !reflect.DeepEqual(got, []int{55, 23, 13, 9}) {
		t.Errorf("zipfCounts(4, 100) = %v", got)
	}

	steps := func(seed int64) (eps []int, graphs []rdf.Graph) {
		ch := newChurner(seed, 4)
		for i := 0; i < 12; i++ {
			ep, ins, rem := ch.next()
			if i >= 4 && len(rem) != churnBatch {
				t.Errorf("step %d removes %d triples, want the endpoint's previous batch", i, len(rem))
			}
			for _, tr := range ins {
				if tr.P.Value != churnPredicate {
					t.Errorf("churn touches predicate %s", tr.P.Value)
				}
			}
			eps, graphs = append(eps, ep), append(graphs, ins)
		}
		return eps, graphs
	}
	epA, gA := steps(3)
	epB, gB := steps(3)
	_, gC := steps(4)
	if !reflect.DeepEqual(epA, []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}) || !reflect.DeepEqual(epA, epB) {
		t.Errorf("churn endpoints = %v", epA)
	}
	if !reflect.DeepEqual(gA, gB) || reflect.DeepEqual(gA, gC) {
		t.Errorf("churn batches: same seed equal = %v, other seed equal = %v",
			reflect.DeepEqual(gA, gB), reflect.DeepEqual(gA, gC))
	}
}

// TestDeclaredNamesMatchBenchmarkJSON is the drift test: what the
// harness emits is exactly what BENCHMARK.json declares, name by name
// with unit, direction and bound.
func TestDeclaredNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []declared `json:"workloads"`
		EndToEnd   []declared `json:"end_to_end"`
		PerLayer   []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var wantWorkloads []declared
	for _, w := range workloads {
		wantWorkloads = append(wantWorkloads, declared{Name: w.name, Why: w.why})
	}
	specs := func(in []metricSpec) []declared {
		var out []declared
		for _, s := range in {
			out = append(out, declared{Name: s.name, Unit: s.unit, Better: s.better, Bound: s.bound})
		}
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []declared
	}{
		{"workloads", doc.Workloads, wantWorkloads},
		{"end_to_end", doc.EndToEnd, specs(endToEnd)},
		{"per_layer", doc.PerLayer, specs(perLayer)},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: BENCHMARK.json declares\n%+v\nthe harness has\n%+v", c.what, c.got, c.want)
		}
		for _, d := range c.got {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]", c.what, d.Name)
			}
		}
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}

	// The functions that compute the values fill exactly the declared names.
	section := &timedSection{samples: make([]sample, 1), wall: time.Second, metrics: map[string]float64{}}
	e2e := endToEndValues(section, []float64{1}, []float64{1}, []float64{1})
	layers := layerValues(section, &recorder{}, &pass{}, 1)
	for _, c := range []struct {
		specs  []metricSpec
		values map[string]float64
	}{{endToEnd, e2e}, {perLayer, layers}} {
		got, missing := withUnits(c.specs, c.values)
		if len(missing) > 0 || len(got) != len(c.values) {
			t.Errorf("computed %v; declared but not computed: %v", c.values, missing)
		}
	}
}

// TestTracedPassInProcess runs the traced pass end to end at scale 1
// with no child process: endpoint servers, decorated federations, the
// paired plain/traced replay with churn, spans, captured bodies and
// every layer replay.
func TestTracedPassInProcess(t *testing.T) {
	w := workloadByName("zipf-churn")
	env, err := newEnvironment(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	reqs, err := newRequests(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := &served{env: env, reqs: reqs, seed: 5}
	rec := newRecorder(w.name)
	p, err := runPass(context.Background(), config{clients: 2, procs: 2}, s, rec, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if f := failed(p.plain, p.traced); len(f) > 0 {
		t.Fatalf("%d requests failed, first: %v", len(f), f[0].err)
	}
	if len(p.traced) == 0 || len(p.overheads) == 0 || len(rec.bodies) == 0 {
		t.Fatalf("traced %d, pairs %d, captured %d", len(p.traced), len(p.overheads), len(rec.bodies))
	}
	kinds := map[string]int{}
	for _, sp := range rec.spans {
		kinds[sp.Name+"/"+sp.Kind]++
		if sp.EndNS < sp.StartNS {
			t.Errorf("span %+v ends before it starts", sp)
		}
	}
	for _, k := range []string{"remote/harvest", "remote/version", "remote/phase1", "phase/execution"} {
		if kinds[k] == 0 {
			t.Errorf("no %s span among %v", k, kinds)
		}
	}
	section := &timedSection{samples: make([]sample, 1), wall: time.Second, metrics: map[string]float64{}}
	v := layerValues(section, rec, p, 2)
	for _, name := range []string{"sparql.parse_us", "sparql.decode_ms", "sparql.encode_ms",
		"core.sape.exec_ms", "endpoint.wait_ms", "core.sape.phase1_requests"} {
		if v[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, v[name])
		}
	}
}
