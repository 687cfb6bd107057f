package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"lusail"
	"lusail/internal/endpoint"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
)

func gzipBytes(t *testing.T, s string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The endpoint substitute and lusail-server's /sparql decode SPARQL
// protocol requests alike: the same request gets the same status from
// both, and a 405 names each handler's own methods.
func TestSparqlProtocolDecoding(t *testing.T) {
	const capBytes = 1 << 10
	const query = `SELECT ?s WHERE { ?s <http://ex/p> ?o }`
	form := url.Values{"query": {query}}.Encode()
	bomb := form + "&pad=" + strings.Repeat("x", 8<<10)
	if n := len(gzipBytes(t, bomb)); n >= capBytes {
		t.Fatalf("compressed bomb is %d bytes, want it under the %d-byte cap", n, capBytes)
	}
	const formType = "application/x-www-form-urlencoded"

	local := loadEndpoint(t, "epA", "<http://ex/s0> <http://ex/p> \"a0\" .\n")
	s := newServer([]lusail.Endpoint{local}, serverConfig{Logger: quietLogger(), MaxRequestBytes: capBytes})
	handlers := []struct {
		name  string
		h     http.Handler
		allow string
	}{
		{"endpoint", endpoint.HandlerWithConfig(local, endpoint.HandlerConfig{Logger: quietLogger(), MaxRequestBytes: capBytes}), "GET, POST, HEAD"},
		{"lusail-server", s.mux, "GET, POST"},
	}
	cases := []struct {
		name, method, rawQuery, ctype, encoding string
		body                                    []byte
		want                                    int
	}{
		{name: "GET", method: http.MethodGet, rawQuery: "query=" + url.QueryEscape(query), want: http.StatusOK},
		{name: "POST form", method: http.MethodPost, ctype: formType, body: []byte(form), want: http.StatusOK},
		{name: "POST sparql-query", method: http.MethodPost, ctype: "application/sparql-query; charset=utf-8", body: []byte(query), want: http.StatusOK},
		{name: "POST gzip form", method: http.MethodPost, ctype: formType, encoding: "gzip", body: gzipBytes(t, form), want: http.StatusOK},
		{name: "gzip inflating past the cap", method: http.MethodPost, ctype: formType, encoding: "gzip", body: gzipBytes(t, bomb), want: http.StatusRequestEntityTooLarge},
		{name: "plain body over the cap", method: http.MethodPost, ctype: formType, body: []byte(bomb), want: http.StatusRequestEntityTooLarge},
		{name: "DELETE", method: http.MethodDelete, want: http.StatusMethodNotAllowed},
		{name: "no query", method: http.MethodGet, want: http.StatusBadRequest},
	}
	for _, hd := range handlers {
		ts := httptest.NewServer(hd.h)
		for _, c := range cases {
			req, err := http.NewRequest(c.method, ts.URL+"/sparql?"+c.rawQuery, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			if c.ctype != "" {
				req.Header.Set("Content-Type", c.ctype)
			}
			if c.encoding != "" {
				req.Header.Set("Content-Encoding", c.encoding)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("%s, %s: status %d, want %d: %s", hd.name, c.name, resp.StatusCode, c.want, body)
				continue
			}
			if c.want == http.StatusOK && !strings.Contains(string(body), "http://ex/s0") {
				t.Errorf("%s, %s: body lacks the solution: %s", hd.name, c.name, body)
			}
			if got := resp.Header.Get("Allow"); c.want == http.StatusMethodNotAllowed && got != hd.allow {
				t.Errorf("%s, %s: Allow = %q, want %q", hd.name, c.name, got, hd.allow)
			}
		}
		ts.Close()
	}
}

// A federation whose endpoint is a lusail-server gets the same rows
// whether or not it gzip-compresses its requests.
func TestGzipRequestsFederateThroughServer(t *testing.T) {
	s := newServer(testEndpoints(t), serverConfig{Logger: quietLogger()})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	const query = `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`
	var got [][]string
	for _, opts := range [][]lusail.HTTPOption{nil, {lusail.WithHTTPGzipRequests(1)}} {
		fed := lusail.New([]lusail.Endpoint{lusail.ConnectHTTP("upstream", ts.URL+"/sparql", opts...)})
		res, err := fed.Query(context.Background(), query)
		if err != nil {
			t.Fatalf("gzip options %v: %v", opts, err)
		}
		got = append(got, testfed.Canon(res))
	}
	if len(got[0]) == 0 {
		t.Fatal("plain federation returned no rows")
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("gzip federation rows %v, plain %v", got[1], got[0])
	}
}

// protocolAccepts names every result format by an Accept header.
var protocolAccepts = []string{
	"",
	"application/sparql-results+xml",
	"text/csv",
	"text/tab-separated-values",
}

// For every Accept value, a streamed response body is exactly the
// format's encoding of the query's collected result, for a solution
// sequence and for an ASK answer alike.
func TestProtocolBodyEqualsEncodedResult(t *testing.T) {
	s := newServer(testEndpoints(t), serverConfig{Logger: quietLogger()})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	for _, query := range []string{
		`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } ORDER BY ?s`,
		`ASK { ?s <http://ex/q> ?o }`,
	} {
		res, err := s.fed.Query(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		for _, accept := range protocolAccepts {
			status, ct, body := acceptQuery(t, ts.URL, query, accept)
			wantCT, want := encodedAs(t, res, accept)
			if status != http.StatusOK || ct != wantCT || body != want {
				t.Errorf("%q, Accept %q: %d %s\n%q\nwant %q", query, accept, status, ct, body, want)
			}
		}
	}
}

// A singleflight follower replays the leader's rows through its own
// writer: its body is the encoding of the published result in the
// format it asked for.
func TestProtocolFollowerReplayEqualsEncodedResult(t *testing.T) {
	s := newServer(testEndpoints(t), serverConfig{Logger: quietLogger()})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	const query = `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`
	res, err := s.fed.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the flight as its leader, so every request below follows.
	key := q.String() + "\x00" + s.policyKey
	f, follower := s.sf.join(key)
	if follower {
		t.Fatal("no flight should be in progress")
	}
	type reply struct {
		accept, ct, body string
		status           int
	}
	replies := make(chan reply, len(protocolAccepts))
	for _, accept := range protocolAccepts {
		go func(accept string) {
			status, ct, body := acceptQuery(t, ts.URL, query, accept)
			replies <- reply{accept, ct, body, status}
		}(accept)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.sf.collapsed.Load() < int64(len(protocolAccepts)) {
		if time.Now().After(deadline) {
			s.sf.finish(key, f, res, nil) // release the followers that did join
			t.Fatalf("%d of %d requests joined the flight", s.sf.collapsed.Load(), len(protocolAccepts))
		}
		time.Sleep(time.Millisecond)
	}
	s.sf.finish(key, f, res, nil)
	for range protocolAccepts {
		r := <-replies
		wantCT, want := encodedAs(t, res, r.accept)
		if r.status != http.StatusOK || r.ct != wantCT || r.body != want {
			t.Errorf("follower, Accept %q: %d %s\n%q\nwant %q", r.accept, r.status, r.ct, r.body, want)
		}
	}
}

// encodedAs returns the media type of the format accept names and
// res encoded in it.
func encodedAs(t *testing.T, res *lusail.Results, accept string) (string, string) {
	t.Helper()
	f := sparql.Negotiate(accept)
	var b bytes.Buffer
	if err := res.Encode(f.NewWriter(&b)); err != nil {
		t.Fatal(err)
	}
	return f.MediaType, b.String()
}

// acceptQuery GETs query with the given Accept header and returns the
// status, Content-Type and body.
func acceptQuery(t *testing.T, base, query, accept string) (int, string, string) {
	req, err := http.NewRequest(http.MethodGet, base+"/sparql?query="+url.QueryEscape(query), nil)
	if err != nil {
		t.Error(err)
		return 0, "", ""
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return 0, "", ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}
