package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lusail"
	"lusail/internal/endpoint"
)

// testEndpoints builds two in-process endpoints with a few triples.
func testEndpoints(t *testing.T) []lusail.Endpoint {
	t.Helper()
	var aDoc, bDoc strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&aDoc, "<http://ex/s%d> <http://ex/p> \"a%d\" .\n", i, i)
		fmt.Fprintf(&bDoc, "<http://ex/t%d> <http://ex/q> \"b%d\" .\n", i, i)
	}
	return []lusail.Endpoint{loadEndpoint(t, "epA", aDoc.String()), loadEndpoint(t, "epB", bDoc.String())}
}

func loadEndpoint(t *testing.T, name, ntriples string) *lusail.MemoryEndpoint {
	t.Helper()
	ep, err := lusail.LoadEndpoint(name, strings.NewReader(ntriples))
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func waitReady(t *testing.T, ts *httptest.Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
			if !strings.Contains(string(body), "probing") {
				return // probing done; not-ready for another reason
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("server never finished initial probing")
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts the value of the first exposition line whose
// name+labels prefix matches.
func metricValue(t *testing.T, page, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, prefix) {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %q not found in:\n%s", prefix, page)
	return 0
}

func TestQueryAndMetricsExposition(t *testing.T) {
	s := newServer(testEndpoints(t), serverConfig{Logger: quietLogger()})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	s.probe(context.Background())
	waitReady(t, ts)

	// One federated query over /sparql.
	q := url.QueryEscape(`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`)
	status, body := get(t, ts.URL+"/sparql?query="+q)
	if status != http.StatusOK {
		t.Fatalf("query status %d: %s", status, body)
	}
	if !strings.Contains(body, "a0") {
		t.Fatalf("expected bindings in response, got: %s", body)
	}

	status, page := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if got := metricValue(t, page, "lusail_queries_total"); got != 1 {
		t.Errorf("lusail_queries_total = %v, want 1", got)
	}
	if got := metricValue(t, page, `lusail_endpoint_requests_total{endpoint="epA"}`); got == 0 {
		t.Errorf("epA request counter is zero")
	}
	if got := metricValue(t, page, `lusail_endpoint_requests_total{endpoint="epB"}`); got == 0 {
		t.Errorf("epB request counter is zero")
	}
	// Per-phase counters flow from core.Metrics.
	if got := metricValue(t, page, `lusail_remote_requests_total{kind="ask"}`); got == 0 {
		t.Errorf("ask request counter is zero")
	}

	// The scraped latency histogram must match the endpoint client's
	// own counts.
	for _, st := range s.fed.EndpointStats() {
		want := st.Stats.Latency.Count()
		if want == 0 {
			t.Fatalf("endpoint %s: no instrumented latency samples", st.Name)
		}
		got := metricValue(t, page,
			fmt.Sprintf(`lusail_endpoint_latency_seconds_count{endpoint=%q}`, st.Name))
		if int64(got) != want {
			t.Errorf("endpoint %s: scraped latency count %v, instrumented count %d", st.Name, got, want)
		}
	}

	// The query duration histogram recorded exactly one observation.
	if got := metricValue(t, page, "lusail_query_duration_seconds_count"); got != 1 {
		t.Errorf("lusail_query_duration_seconds_count = %v, want 1", got)
	}
}

func TestHealthAlwaysOK(t *testing.T) {
	s := newServer(testEndpoints(t), serverConfig{Logger: quietLogger()})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz status %d, want 200", status)
	}
}

func TestReadyzReportsProbing(t *testing.T) {
	s := newServer(testEndpoints(t), serverConfig{Logger: quietLogger()})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	// probe() has not run (serve() starts it): readiness must fail.
	status, body := get(t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "probing") {
		t.Fatalf("pre-probe /readyz = %d %q, want 503 probing", status, body)
	}
	go s.probe(context.Background())
	waitReady(t, ts)
	if status, _ := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("post-probe /readyz = %d, want 200", status)
	}
}

// /readyz has one breaker rule under every degradation policy: 503
// only while every endpoint's breaker is open.
var degradePolicies = []lusail.DegradePolicy{
	lusail.DegradeFail, lusail.DegradeSkipEndpoint, lusail.DegradeBestEffort,
}

// TestReadyzFlipsWithBreakerAndRecovers opens every breaker (503), then
// heals the endpoints and sends no queries: once the cooldown passes
// the breakers read half-open and /readyz returns 200 by itself, so a
// load balancer that stopped routing here brings the instance back,
// and routed queries then probe the breakers closed.
func TestReadyzFlipsWithBreakerAndRecovers(t *testing.T) {
	for _, policy := range degradePolicies {
		t.Run(policy.String(), func(t *testing.T) {
			eps := testEndpoints(t)
			a, b := &switchable{Endpoint: eps[0]}, &switchable{Endpoint: eps[1]}
			s, ts, query := readyzServer(t, policy, []lusail.Endpoint{a, b}, lusail.ResilienceConfig{
				BreakerFailures: 1,
				BreakerCooldown: 300 * time.Millisecond,
			})
			a.down.Store(true)
			b.down.Store(true)
			tripBreakers(t, s, query, 2)
			if status, body := get(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable ||
				!strings.Contains(body, "all endpoint circuit breakers open") {
				t.Fatalf("/readyz with every breaker open = %d %q, want 503", status, body)
			}

			a.down.Store(false)
			b.down.Store(false)
			// No queries from here on: only the clock moves the breakers.
			deadline := time.Now().Add(5 * time.Second)
			for {
				status, body := get(t, ts.URL+"/readyz")
				if status == http.StatusOK {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("/readyz stayed %d %q after the cooldown with no traffic", status, body)
				}
				time.Sleep(10 * time.Millisecond)
			}
			if _, body := get(t, ts.URL+"/healthz"); !strings.Contains(body, `"half-open"`) {
				t.Errorf("/healthz after the cooldown does not report half-open breakers: %s", body)
			}
			// Routed queries probe the breakers closed. Under fail a query
			// can still meet a breaker whose cooldown has not yet run out.
			deadline = time.Now().Add(5 * time.Second)
			for status := query(); status != http.StatusOK || len(unclosedBreakers(s)) > 0; status = query() {
				if time.Now().After(deadline) {
					t.Fatalf("query = %d with breakers %v not closed after recovery", status, unclosedBreakers(s))
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestReadyzToleratesPartialOutage opens epA's breaker while epB stays
// healthy: /readyz stays 200 under every policy, while the breaker
// gauge and /healthz name epA; then queries probe the breaker closed.
func TestReadyzToleratesPartialOutage(t *testing.T) {
	for _, policy := range degradePolicies {
		t.Run(policy.String(), func(t *testing.T) {
			eps := testEndpoints(t)
			// The startup probe consumes one injected failure, three
			// query-driven ones open epA's breaker, and the first
			// request after the cooldown closes it.
			faulty := endpoint.NewFaulty(eps[0], endpoint.FaultConfig{FailFirst: 4})
			s, ts, query := readyzServer(t, policy, []lusail.Endpoint{faulty, eps[1]}, lusail.ResilienceConfig{
				BreakerFailures: 3,
				BreakerCooldown: 300 * time.Millisecond,
			})
			tripBreakers(t, s, query, 1)

			if status, body := get(t, ts.URL+"/readyz"); status != http.StatusOK {
				t.Fatalf("/readyz with one breaker open = %d %q, want 200", status, body)
			}
			_, page := get(t, ts.URL+"/metrics")
			if got := metricValue(t, page, `lusail_breaker_open{endpoint="epA"}`); got != 1 {
				t.Errorf(`lusail_breaker_open{endpoint="epA"} = %v, want 1`, got)
			}
			if _, body := get(t, ts.URL+"/healthz"); !strings.Contains(body, `"epA"`) ||
				!strings.Contains(body, `"open"`) {
				t.Errorf("/healthz missing per-endpoint breaker detail: %s", body)
			}

			deadline := time.Now().Add(5 * time.Second)
			for len(unclosedBreakers(s)) > 0 && time.Now().Before(deadline) {
				time.Sleep(25 * time.Millisecond)
				query()
			}
			if left := unclosedBreakers(s); len(left) > 0 {
				t.Fatalf("breakers %v never closed", left)
			}
			if status := query(); status != http.StatusOK {
				t.Fatalf("query after recovery = %d, want 200", status)
			}
		})
	}
}

// switchable fails every request with a transient error while down is
// set, and otherwise answers from the embedded endpoint.
type switchable struct {
	lusail.Endpoint
	down atomic.Bool
}

func (e *switchable) Query(ctx context.Context, query string) (*lusail.Results, error) {
	if e.down.Load() {
		return nil, endpoint.Transient(fmt.Errorf("endpoint %s: connection refused", e.Name()))
	}
	return e.Endpoint.Query(ctx, query)
}

// readyzServer starts a probed server over eps under policy with rc's
// breaker and no retries. query sends one query that needs a fresh
// source-selection ASK to every endpoint and returns its status.
func readyzServer(t *testing.T, policy lusail.DegradePolicy, eps []lusail.Endpoint, rc lusail.ResilienceConfig) (*server, *httptest.Server, func() int) {
	t.Helper()
	s := newServer(eps, serverConfig{
		Logger:      quietLogger(),
		Resilience:  &rc,
		Degradation: policy,
	})
	ts := httptest.NewServer(s.mux)
	t.Cleanup(ts.Close)
	go s.probe(context.Background())
	waitReady(t, ts)
	i := 0
	return s, ts, func() int {
		// Distinct predicates bypass the ASK facts, so every query
		// really probes the endpoints.
		q := url.QueryEscape(fmt.Sprintf(`SELECT ?s WHERE { ?s <http://ex/fresh%d> ?o }`, i))
		i++
		status, _ := get(t, ts.URL+"/sparql?query="+q)
		return status
	}
}

// tripBreakers sends queries until want breakers are open.
func tripBreakers(t *testing.T, s *server, query func() int, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for open := 0; open < want; open = countOpen(s) {
		if time.Now().After(deadline) {
			t.Fatalf("%d breakers open, want %d", open, want)
		}
		query()
	}
}

func countOpen(s *server) int {
	n := 0
	for _, b := range s.fed.BreakerStates() {
		if b.State == lusail.BreakerOpen {
			n++
		}
	}
	return n
}

// unclosedBreakers names the endpoints whose breaker is open or
// half-open.
func unclosedBreakers(s *server) []string {
	var names []string
	for _, b := range s.fed.BreakerStates() {
		if b.State != lusail.BreakerClosed {
			names = append(names, b.Name)
		}
	}
	return names
}

func TestBestEffortQueryMarksPartialResults(t *testing.T) {
	eps := testEndpoints(t)
	down := endpoint.NewFaulty(eps[1], endpoint.FaultConfig{Down: true})
	s := newServer([]lusail.Endpoint{eps[0], down}, serverConfig{
		Logger:      quietLogger(),
		Degradation: lusail.DegradeBestEffort,
	})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	s.probe(context.Background())

	q := url.QueryEscape(`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`)
	resp, err := http.Get(ts.URL + "/sparql?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("best-effort query = %d: %s", resp.StatusCode, body)
	}
	// The JSON path streams, so completeness arrives as a trailer
	// (populated once the body has been fully read).
	if got := resp.Trailer.Get("X-Lusail-Partial-Results"); got != "true" {
		t.Errorf("X-Lusail-Partial-Results trailer = %q, want true", got)
	}
	if !strings.Contains(string(body), "a0") {
		t.Errorf("partial results missing surviving endpoint's rows: %s", body)
	}

	_, page := get(t, ts.URL+"/metrics")
	if got := metricValue(t, page, "lusail_degraded_queries_total"); got != 1 {
		t.Errorf("lusail_degraded_queries_total = %v, want 1", got)
	}
	if got := metricValue(t, page, "lusail_dropped_endpoints_total"); got == 0 {
		t.Errorf("lusail_dropped_endpoints_total = 0, want > 0")
	}
}

func TestAdmissionShedsOverloadAndStaysReady(t *testing.T) {
	// A simulated 150ms RTT keeps each query holding its slot long
	// enough for 16 concurrent clients to pile up behind limit 2.
	slow := loadEndpoint(t, "slowEP", `<http://ex/s> <http://ex/p> "v" .`).
		WithNetwork(lusail.NetworkProfile{RTT: 150 * time.Millisecond})
	s := newServer([]lusail.Endpoint{slow}, serverConfig{
		Logger:        quietLogger(),
		MaxConcurrent: 2,
		MaxQueue:      2,
		QueueWait:     50 * time.Millisecond,
	})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	s.probe(context.Background())

	const clients = 16
	type outcome struct {
		status     int
		retryAfter string
	}
	results := make(chan outcome, clients)
	q := url.QueryEscape(`SELECT ?s WHERE { ?s <http://ex/p> ?o }`)
	for i := 0; i < clients; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/sparql?query=" + q)
			if err != nil {
				results <- outcome{status: -1}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- outcome{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		}()
	}
	var ok, shed int
	for i := 0; i < clients; i++ {
		o := <-results
		switch o.status {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			if o.retryAfter == "" {
				t.Errorf("shed response missing Retry-After header")
			}
		default:
			t.Errorf("unexpected status %d", o.status)
		}
	}
	if ok == 0 {
		t.Errorf("no query succeeded under overload")
	}
	if shed == 0 {
		t.Errorf("no request was shed with limit 2 and %d clients", clients)
	}

	_, page := get(t, ts.URL+"/metrics")
	if got := metricValue(t, page, "lusail_shed_requests_total"); got != float64(shed) {
		t.Errorf("lusail_shed_requests_total = %v, want %d", got, shed)
	}
	if got := metricValue(t, page, "lusail_server_inflight_peak"); got > 2 {
		t.Errorf("in-flight peak %v exceeded limit 2", got)
	}
	if got := metricValue(t, page, "lusail_admission_limit"); got != 2 {
		t.Errorf("lusail_admission_limit = %v, want 2", got)
	}
	// A momentarily full queue must not flip readiness.
	if status, body := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Errorf("/readyz under overload = %d %q, want 200", status, body)
	}
}

func TestAdmissionSaturationHysteresis(t *testing.T) {
	a := newAdmission(1, 1, 10*time.Millisecond)
	now := time.Now()
	a.now = func() time.Time { return now }

	release, ok := a.acquire(context.Background())
	if !ok {
		t.Fatal("first acquire should be admitted")
	}
	// Fill the queue spot, then overflow it: the overflow is shed and
	// marks the queue full.
	queued := make(chan bool)
	go func() {
		r, ok := a.acquire(context.Background())
		if ok {
			defer r()
		}
		queued <- ok
	}()
	for a.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, ok := a.acquire(context.Background()); ok {
		t.Fatal("overflow acquire should be shed")
	}
	if a.saturated() {
		t.Error("saturation must not report before the window elapses")
	}
	now = now.Add(satWindow + time.Second)
	if !a.saturated() {
		t.Error("sustained full queue should report saturation")
	}
	// Progress (a slot release) clears saturation.
	release()
	if got := <-queued; !got {
		// The queued waiter may have timed out instead; either way a
		// release resets the full-since marker.
		_ = got
	}
	if a.saturated() {
		t.Error("saturation must clear after a slot release")
	}
}

func TestSlowQueryCapturedWithSpanTree(t *testing.T) {
	s := newServer(testEndpoints(t), serverConfig{
		Logger:        quietLogger(),
		SlowThreshold: time.Nanosecond, // every query is slow
	})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	q := url.QueryEscape(`SELECT ?s WHERE { ?s <http://ex/p> ?o }`)
	if status, body := get(t, ts.URL+"/sparql?query="+q); status != http.StatusOK {
		t.Fatalf("query status %d: %s", status, body)
	}

	status, body := get(t, ts.URL+"/debug/queries")
	if status != http.StatusOK {
		t.Fatalf("/debug/queries status %d", status)
	}
	for _, want := range []string{`"slow": true`, `"span_tree"`, "source-selection", `qid=q`} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/queries missing %q:\n%s", want, body)
		}
	}
	if len(s.qlog.Slow()) != 1 {
		t.Fatalf("slow ring has %d records, want 1", len(s.qlog.Slow()))
	}
	rec := s.qlog.Slow()[0]
	if !strings.Contains(rec.SpanTree, "finalize") {
		t.Errorf("span tree missing finalize span:\n%s", rec.SpanTree)
	}
	_, page := get(t, ts.URL+"/metrics")
	if got := metricValue(t, page, "lusail_slow_queries_total"); got != 1 {
		t.Errorf("lusail_slow_queries_total = %v, want 1", got)
	}
}

func TestSparqlProtocolSurface(t *testing.T) {
	s := newServer(testEndpoints(t), serverConfig{Logger: quietLogger()})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	// Unsupported method: 405 with Allow.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sparql", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status %d, want 405", resp.StatusCode)
	}
	if got := resp.Header.Get("Allow"); got != "GET, POST" {
		t.Fatalf("Allow = %q, want GET, POST", got)
	}

	// Malformed query: 400.
	if status, _ := get(t, ts.URL+"/sparql?query="+url.QueryEscape("SELEKT broken")); status != http.StatusBadRequest {
		t.Fatalf("malformed query status %d, want 400", status)
	}

	// POST with direct query body (charset parameter included).
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/sparql",
		strings.NewReader(`SELECT ?s WHERE { ?s <http://ex/p> ?o }`))
	req.Header.Set("Content-Type", "application/sparql-query; charset=utf-8")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "http://ex/s0") {
		t.Fatalf("sparql-query POST: %d %s", resp.StatusCode, body)
	}

	// Content negotiation: CSV.
	req, _ = http.NewRequest(http.MethodGet,
		ts.URL+"/sparql?query="+url.QueryEscape(`SELECT ?s WHERE { ?s <http://ex/p> ?o }`), nil)
	req.Header.Set("Accept", "text/csv")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("Accept text/csv → Content-Type %q", ct)
	}
	if !strings.HasPrefix(string(body), "s\r\n") && !strings.HasPrefix(string(body), "s\n") {
		t.Fatalf("CSV body: %q", body)
	}
}

func TestGracefulDrain(t *testing.T) {
	// An endpoint with a simulated 200ms RTT keeps the query in
	// flight long enough to race shutdown against it.
	slow := loadEndpoint(t, "slowEP", `<http://ex/s> <http://ex/p> "v" .`).
		WithNetwork(lusail.NetworkProfile{RTT: 200 * time.Millisecond})
	s := newServer([]lusail.Endpoint{slow}, serverConfig{Logger: quietLogger()})

	ln, err := s.listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.serve(ctx, ln, 5*time.Second) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		status int
		body   string
		at     time.Time
	}
	results := make(chan result, 1)
	go func() {
		q := url.QueryEscape(`SELECT ?s WHERE { ?s <http://ex/p> ?o }`)
		resp, err := http.Get(base + "/sparql?query=" + q)
		if err != nil {
			results <- result{status: -1, body: err.Error(), at: time.Now()}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		results <- result{status: resp.StatusCode, body: string(body), at: time.Now()}
	}()

	// Let the query get on the wire, then trigger shutdown mid-flight.
	time.Sleep(50 * time.Millisecond)
	cancel()

	res := <-results
	if res.status != http.StatusOK {
		t.Fatalf("in-flight query during shutdown: %d %s", res.status, res.body)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after drain")
	}
	if len(s.qlog.Recent()) != 1 {
		t.Fatalf("drained query not recorded: %d records", len(s.qlog.Recent()))
	}
}

// A POST body over the configured cap gets 413 from /sparql; a body
// under it is served normally.
func TestServerRequestBodyCap(t *testing.T) {
	s := newServer(testEndpoints(t), serverConfig{Logger: quietLogger(), MaxRequestBytes: 256})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	s.probe(context.Background())
	waitReady(t, ts)

	small := url.Values{"query": {`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`}}
	resp, err := http.PostForm(ts.URL+"/sparql", small)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body: status %d, want 200", resp.StatusCode)
	}

	big := url.Values{"query": {`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } # ` + strings.Repeat("x", 1024)}}
	resp, err = http.PostForm(ts.URL+"/sparql", big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestDebugStatsHarvestAndExposition drives the statistics surface:
// POST /debug/stats harvests every endpoint, a warmed query then plans
// without endpoint probes, and the snapshot plus the lusail_stats_*
// metric families report the service's state.
func TestDebugStatsHarvestAndExposition(t *testing.T) {
	s := newServer(testEndpoints(t), serverConfig{Logger: quietLogger(), Statistics: true})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	s.probe(context.Background())
	waitReady(t, ts)

	resp, err := http.Post(ts.URL+"/debug/stats", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /debug/stats: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"Summaries": 2`) {
		t.Fatalf("snapshot after harvest lacks 2 summaries: %s", body)
	}

	q := url.QueryEscape(`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`)
	if status, qb := get(t, ts.URL+"/sparql?query="+q); status != http.StatusOK {
		t.Fatalf("query status %d: %s", status, qb)
	}

	status, page := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if got := metricValue(t, page, "lusail_stats_summaries"); got != 2 {
		t.Errorf("lusail_stats_summaries = %v, want 2", got)
	}
	if got := metricValue(t, page, "lusail_stats_lookup_hits_total"); got == 0 {
		t.Error("no summary lookups served after a warmed query")
	}
	// The warmed query planned without a single ASK probe (the family
	// is omitted entirely while its counter has never incremented).
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, `lusail_remote_requests_total{kind="ask"}`) &&
			!strings.HasSuffix(strings.TrimSpace(line), " 0") {
			t.Errorf("ask requests after warm harvest: %s, want 0", line)
		}
	}
}

// TestDebugStatsDisabled: POST without -stats is refused; GET reports
// the service off.
func TestDebugStatsDisabled(t *testing.T) {
	s := newServer(testEndpoints(t), serverConfig{Logger: quietLogger()})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/debug/stats", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST with stats off: status %d, want 409", resp.StatusCode)
	}
	if status, body := get(t, ts.URL+"/debug/stats"); status != http.StatusOK ||
		!strings.Contains(body, `"enabled": false`) {
		t.Fatalf("GET with stats off: status %d body %s", status, body)
	}
}
