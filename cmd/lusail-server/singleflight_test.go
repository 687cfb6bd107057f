package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"lusail"
)

// Concurrent identical queries collapse onto one engine execution;
// every caller still gets a complete response encoded per its own
// Accept header.
func TestSingleflightCollapsesConcurrentIdenticalQueries(t *testing.T) {
	// A simulated 250ms RTT keeps the leader's execution in flight long
	// enough for the followers to pile onto it.
	slow := loadEndpoint(t, "slowEP", `<http://ex/s> <http://ex/p> "v" .`).
		WithNetwork(lusail.NetworkProfile{RTT: 250 * time.Millisecond})
	s := newServer([]lusail.Endpoint{slow}, serverConfig{Logger: quietLogger()})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	s.probe(context.Background())

	const followers = 6
	leaderQ := `SELECT ?s WHERE { ?s <http://ex/p> ?o }`
	// Same query, different surface text: the key is the canonicalized
	// parse, so this must still collapse onto the leader's flight.
	followerQ := "SELECT ?s\nWHERE {\n  ?s <http://ex/p> ?o .\n}"

	type reply struct {
		status   int
		ct, body string
	}
	replies := make(chan reply, followers+1)
	fire := func(q, accept string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(q), nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			replies <- reply{status: -1, body: err.Error()}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		replies <- reply{resp.StatusCode, resp.Header.Get("Content-Type"), string(body)}
	}
	go fire(leaderQ, "")
	// Let the leader get on the wire before the followers arrive.
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < followers; i++ {
		accept := ""
		if i == 0 {
			accept = "text/csv" // followers replay in their own format
		}
		go fire(followerQ, accept)
	}

	csvSeen := false
	for i := 0; i < followers+1; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("reply %d: status %d: %s", i, r.status, r.body)
		}
		if !strings.Contains(r.body, "http://ex/s") {
			t.Errorf("reply %d missing bindings: %s", i, r.body)
		}
		if strings.HasPrefix(r.ct, "text/csv") {
			csvSeen = true
		}
	}
	if !csvSeen {
		t.Error("follower with Accept: text/csv did not receive CSV")
	}

	_, page := get(t, ts.URL+"/metrics")
	leaders := metricValue(t, page, "lusail_server_singleflight_leaders_total")
	collapsed := metricValue(t, page, "lusail_server_singleflight_collapsed_total")
	if leaders+collapsed != followers+1 {
		t.Errorf("leaders(%v) + collapsed(%v) != %d requests", leaders, collapsed, followers+1)
	}
	if collapsed == 0 {
		t.Error("no request collapsed onto the in-flight execution")
	}
	// Only leaders reach the engine: the query counter and the query
	// log must both see exactly the leader executions.
	if got := metricValue(t, page, "lusail_queries_total"); got != leaders {
		t.Errorf("lusail_queries_total = %v, want %v (one per leader)", got, leaders)
	}
	if got := len(s.qlog.Recent()); got != int(leaders) {
		t.Errorf("query log has %d records, want %v", got, leaders)
	}
}

// Collapsing joins only requests that overlap: identical queries sent
// one after the other each execute, each as its own leader.
func TestSequentialIdenticalQueriesEachExecute(t *testing.T) {
	s := newServer(testEndpoints(t), serverConfig{Logger: quietLogger()})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	s.probe(context.Background())

	q := url.QueryEscape(`SELECT ?s WHERE { ?s <http://ex/p> ?o }`)
	for i := 0; i < 2; i++ {
		if status, body := get(t, ts.URL+"/sparql?query="+q); status != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, status, body)
		}
	}
	_, page := get(t, ts.URL+"/metrics")
	if got := metricValue(t, page, "lusail_queries_total"); got != 2 {
		t.Errorf("lusail_queries_total = %v, want 2", got)
	}
	if got := metricValue(t, page, "lusail_server_singleflight_leaders_total"); got != 2 {
		t.Errorf("singleflight leaders = %v, want 2", got)
	}
	if got := metricValue(t, page, "lusail_server_singleflight_collapsed_total"); got != 0 {
		t.Errorf("singleflight collapsed = %v, want 0", got)
	}
}

// The /debug/invalidate admin route drops the persistent caches, and
// the lusail_cache_* families track reuse across requests.
func TestDebugInvalidateDropsCaches(t *testing.T) {
	s := newServer(testEndpoints(t), serverConfig{
		Logger:            quietLogger(),
		SubqueryCacheSize: 64,
		SubqueryCacheTTL:  time.Minute,
	})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	s.probe(context.Background())

	// Two identical queries back to back; the second reuses the first's
	// phase-1 result. (DISTINCT: a single-pattern query's only subquery
	// is the streaming tail, which the engine stores only where the rows
	// are held anyway, and deliberately not behind a plain streamed
	// response.)
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest(http.MethodGet,
			ts.URL+"/sparql?query="+url.QueryEscape(`SELECT DISTINCT ?s ?o WHERE { ?s <http://ex/p> ?o }`), nil)
		req.Header.Set("Accept", "text/csv")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, body)
		}
	}
	_, page := get(t, ts.URL+"/metrics")
	if got := metricValue(t, page, `lusail_cache_hits_total{cache="subquery"}`); got == 0 {
		t.Error("repeated query produced no subquery-cache hits")
	}
	if got := metricValue(t, page, `lusail_cache_entries{cache="subquery"}`); got == 0 {
		t.Fatal("no subquery-cache entries after two queries")
	}

	// Wrong method: 405 with Allow.
	if status, _ := get(t, ts.URL+"/debug/invalidate"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /debug/invalidate status %d, want 405", status)
	}
	// Unknown endpoint: 404.
	resp, err := http.PostForm(ts.URL+"/debug/invalidate", url.Values{"endpoint": {"nope"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("invalidate unknown endpoint status %d, want 404", resp.StatusCode)
	}
	// Endpoint-scoped invalidation succeeds.
	resp, err = http.PostForm(ts.URL+"/debug/invalidate", url.Values{"endpoint": {"epA"}})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "epA") {
		t.Errorf("scoped invalidate: %d %s", resp.StatusCode, body)
	}
	// Full invalidation empties the subquery cache.
	resp, err = http.PostForm(ts.URL+"/debug/invalidate", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "all") {
		t.Errorf("full invalidate: %d %s", resp.StatusCode, body)
	}
	_, page = get(t, ts.URL+"/metrics")
	if got := metricValue(t, page, `lusail_cache_entries{cache="subquery"}`); got != 0 {
		t.Errorf("lusail_cache_entries after invalidate = %v, want 0", got)
	}
}
