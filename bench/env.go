package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
	"lusail/internal/testfed"
)

// endpointServer is one loopback SPARQL endpoint the harness owns:
// endpoint.Handler over endpoint.Local behind a middleware that
// sleeps the workload's delay and counts what crossed the wire.
type endpointServer struct {
	local *endpoint.Local
	url   string
	srv   *http.Server

	delay time.Duration
	// gate keeps churn out while a request is being evaluated:
	// store.Store re-enters its read lock during evaluation, so a
	// writer arriving mid-query deadlocks the endpoint (a defect of the
	// repository's store, outside this benchmark's paths).
	gate sync.RWMutex

	queries  atomic.Int64 // SPARQL requests received (GET/POST)
	probes   atomic.Int64 // HEAD data-version probes received
	bytes    atomic.Int64 // response body bytes shipped
	handlerN atomic.Int64 // nanoseconds inside the handler, delay excluded
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (e *endpointServer) ServeHTTP(inner http.Handler, w http.ResponseWriter, r *http.Request) {
	if e.delay > 0 {
		select {
		case <-time.After(e.delay):
		case <-r.Context().Done():
			return
		}
	}
	if r.Method == http.MethodHead {
		e.probes.Add(1)
		inner.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	e.gate.RLock()
	start := time.Now()
	inner.ServeHTTP(cw, r)
	e.handlerN.Add(int64(time.Since(start)))
	e.gate.RUnlock()
	e.queries.Add(1)
	e.bytes.Add(cw.n)
}

// wire is a snapshot of the endpoint servers' counters, summed.
type wire struct {
	queries, probes, bytes int64
	handler                time.Duration
}

func (a wire) sub(b wire) wire {
	return wire{a.queries - b.queries, a.probes - b.probes, a.bytes - b.bytes, a.handler - b.handler}
}

// expected is the oracle's answer to one distinct query.
type expected struct {
	rows int
	hash uint64 // order-independent hash of the row multiset
	// For a LIMIT query any rows of the unlimited answer are right, so
	// the check is "count matches and every row is one of these".
	limited bool
	anyOf   map[uint64]bool
}

// environment is a generated federation served over loopback HTTP plus
// the union-graph oracle's answers for the workload's queries.
type environment struct {
	w       *workload
	servers []*endpointServer
	answers []expected
}

func newEnvironment(w *workload, scale int) (*environment, error) {
	names, graphs := w.federation(scale)
	env := &environment{w: w}
	var locals []*endpoint.Local
	for i, g := range graphs {
		local := endpoint.NewLocal(names[i], store.FromGraph(g))
		locals = append(locals, local)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			env.close()
			return nil, err
		}
		es := &endpointServer{local: local, delay: w.delay, url: "http://" + ln.Addr().String()}
		inner := endpoint.Handler(local)
		es.srv = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			es.ServeHTTP(inner, rw, r)
		})}
		env.servers = append(env.servers, es)
		go es.srv.Serve(ln) // returns when close() shuts the server down
	}
	oracle := endpoint.NewLocal("oracle", testfed.UnionStore(locals...))
	for _, q := range w.queries {
		exp, err := oracleAnswer(oracle, q.text)
		if err != nil {
			env.close()
			return nil, fmt.Errorf("oracle %s: %w", q.name, err)
		}
		env.answers = append(env.answers, exp)
	}
	return env, nil
}

// applyChurn lands one batch on endpoint i between requests.
func (env *environment) applyChurn(i int, insert, remove rdf.Graph) {
	es := env.servers[i]
	es.gate.Lock()
	defer es.gate.Unlock()
	es.local.ApplyChurn(insert, remove)
}

func (env *environment) close() {
	for _, es := range env.servers {
		es.srv.Close()
	}
}

func (env *environment) urls() []string {
	out := make([]string, len(env.servers))
	for i, es := range env.servers {
		out[i] = es.url
	}
	return out
}

func (env *environment) wire() wire {
	var t wire
	for _, es := range env.servers {
		t.queries += es.queries.Load()
		t.probes += es.probes.Load()
		t.bytes += es.bytes.Load()
		t.handler += time.Duration(es.handlerN.Load())
	}
	return t
}

// oracleAnswer evaluates query over the union graph. The result goes
// through the same JSON document and row hashing a served response
// does, so the two sides cannot disagree on canonical form.
func oracleAnswer(oracle *endpoint.Local, query string) (expected, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return expected{}, err
	}
	limit := q.Limit
	if limit >= 0 {
		q.Limit = -1
		query = q.String()
	}
	res, err := oracle.Query(context.Background(), query)
	if err != nil {
		return expected{}, err
	}
	var doc bytes.Buffer
	if err := res.EncodeJSON(&doc); err != nil {
		return expected{}, err
	}
	hashes, err := rowHashes(&doc)
	if err != nil {
		return expected{}, err
	}
	if limit < 0 {
		return expected{rows: len(hashes), hash: sumHashes(hashes)}, nil
	}
	exp := expected{rows: min(limit, len(hashes)), limited: true, anyOf: map[uint64]bool{}}
	for _, h := range hashes {
		exp.anyOf[h] = true
	}
	return exp, nil
}

// matches reports whether a served SPARQL-JSON document is the
// expected answer.
func (exp expected) matches(doc io.Reader) error {
	hashes, err := rowHashes(doc)
	if err != nil {
		return err
	}
	if len(hashes) != exp.rows {
		return fmt.Errorf("%d rows, oracle has %d", len(hashes), exp.rows)
	}
	if exp.limited {
		for _, h := range hashes {
			if !exp.anyOf[h] {
				return fmt.Errorf("row outside the oracle's unlimited answer")
			}
		}
		return nil
	}
	if sum := sumHashes(hashes); sum != exp.hash {
		return fmt.Errorf("row hash %x, oracle has %x", sum, exp.hash)
	}
	return nil
}

func sumHashes(hs []uint64) uint64 {
	var sum uint64
	for _, h := range hs {
		sum += h
	}
	return sum
}

// rowHashes decodes a SPARQL 1.1 JSON results document with
// encoding/json (not the repo's decoder: the check must not get
// faster or slower with the code under test) and hashes each row over
// its sorted variable bindings.
func rowHashes(doc io.Reader) ([]uint64, error) {
	type term struct {
		Type     string `json:"type"`
		Value    string `json:"value"`
		Datatype string `json:"datatype"`
		Lang     string `json:"xml:lang"`
	}
	var parsed struct {
		Results struct {
			Bindings []map[string]term `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(doc).Decode(&parsed); err != nil {
		return nil, fmt.Errorf("decoding results: %w", err)
	}
	out := make([]uint64, len(parsed.Results.Bindings))
	var vars []string
	for i, row := range parsed.Results.Bindings {
		vars = vars[:0]
		for v := range row {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		h := fnv.New64a()
		for _, v := range vars {
			t := row[v]
			for _, s := range [...]string{v, t.Type, t.Value, t.Datatype, t.Lang} {
				io.WriteString(h, s)
				h.Write([]byte{0})
			}
		}
		out[i] = h.Sum64()
	}
	return out, nil
}
