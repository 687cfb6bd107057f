package endpoint

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"lusail/internal/sparql"
	"lusail/internal/trace"
)

const selectP = `SELECT ?s WHERE { ?s <http://ex/p> ?o }`

func protocolServer(t *testing.T) *httptest.Server {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := httptest.NewServer(HandlerWithConfig(NewLocal("server", testStore()), HandlerConfig{Logger: quiet}))
	t.Cleanup(srv.Close)
	return srv
}

func TestHandlerMethodNotAllowed(t *testing.T) {
	srv := protocolServer(t)
	for _, method := range []string{http.MethodDelete, http.MethodPut, http.MethodPatch} {
		req, _ := http.NewRequest(method, srv.URL, nil)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s: status = %d, want 405", method, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "GET, POST, HEAD" {
			t.Errorf("%s: Allow = %q, want \"GET, POST, HEAD\"", method, allow)
		}
	}
}

func TestHandlerFormPost(t *testing.T) {
	srv := protocolServer(t)
	resp, err := srv.Client().PostForm(srv.URL, url.Values{"query": {selectP}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	res, err := sparql.DecodeJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("rows = %d, want 2", res.Len())
	}
}

func TestHandlerDirectQueryPost(t *testing.T) {
	srv := protocolServer(t)
	// The media type may carry a charset parameter; the handler must
	// still treat the body as the raw query.
	for _, ct := range []string{"application/sparql-query", "application/sparql-query; charset=utf-8"} {
		resp, err := srv.Client().Post(srv.URL, ct, strings.NewReader(selectP))
		if err != nil {
			t.Fatal(err)
		}
		res, derr := sparql.DecodeJSON(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status = %d", ct, resp.StatusCode)
		}
		if derr != nil {
			t.Fatal(derr)
		}
		if res.Len() != 2 {
			t.Errorf("%s: rows = %d, want 2", ct, res.Len())
		}
	}
}

func TestHandlerMissingQuery(t *testing.T) {
	srv := protocolServer(t)
	// Form POST without a query parameter is a 400, same as GET.
	resp, err := srv.Client().PostForm(srv.URL, url.Values{"other": {"x"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("form without query: status = %d, want 400", resp.StatusCode)
	}
}

// The endpoint substitute answers in every result format the Accept
// header names, each body the format's encoding of the local result.
func TestProtocolResultFormats(t *testing.T) {
	srv := protocolServer(t)
	want, err := NewLocal("server", testStore()).Query(context.Background(), selectP)
	if err != nil {
		t.Fatal(err)
	}
	for _, accept := range []string{"", "application/sparql-results+xml", "text/csv", "text/tab-separated-values"} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"?query="+url.QueryEscape(selectP), nil)
		req.Header.Set("Accept", accept)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		f := sparql.Negotiate(accept)
		var enc bytes.Buffer
		if err := want.Encode(f.NewWriter(&enc)); err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != f.MediaType || string(body) != enc.String() {
			t.Errorf("Accept %q: %d %s\n%q\nwant %q", accept, resp.StatusCode, ct, body, enc.String())
		}
	}
}

func TestHandlerParseErrorIs400(t *testing.T) {
	srv := protocolServer(t)
	resp, err := srv.Client().PostForm(srv.URL, url.Values{"query": {"SELEKT broken"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed query: status = %d, want 400", resp.StatusCode)
	}
}

func TestLatencyHistogramQuantileEdges(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 4; i++ {
		observe(h, 80*time.Microsecond)
	}
	observe(h, time.Minute) // overflow bucket
	// q=1.0 must cover the overflow sample, which reports the largest
	// finite bound rather than +Inf.
	if got := trace.Seconds(h.Snapshot().Quantile(1.0)); got != 10*time.Second {
		t.Errorf("Quantile(1.0) = %s, want 10s (largest finite bound)", got)
	}
	// A tiny quantile still ranks at least one sample.
	if got := trace.Seconds(h.Snapshot().Quantile(0.0001)); got != 100*time.Microsecond {
		t.Errorf("Quantile(0.0001) = %s, want 100µs", got)
	}

	overflowOnly := NewLatencyHistogram()
	observe(overflowOnly, time.Hour)
	if got := trace.Seconds(overflowOnly.Snapshot().Quantile(0.5)); got != 10*time.Second {
		t.Errorf("overflow-only Quantile(0.5) = %s, want 10s", got)
	}
}

// The endpoint latency series keeps its bucket bounds: 50µs to 10s,
// increasing, each landing exactly on its duration.
func TestLatencyBucketBounds(t *testing.T) {
	want := []time.Duration{
		50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond, 10 * time.Millisecond,
		25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
		500 * time.Millisecond, time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
	}
	if len(latencyBounds) != len(want) {
		t.Fatalf("bounds = %d entries, want %d", len(latencyBounds), len(want))
	}
	for i, d := range want {
		if latencyBounds[i] != d.Seconds() {
			t.Errorf("bound %d = %g, want %s", i, latencyBounds[i], d)
		}
	}
}

func TestInstrumentedMergedStats(t *testing.T) {
	// Stats through a Client must merge the inner endpoint's traffic
	// counters with the client's histogram.
	in := NewClient(NewLocal("ep", testStore()), nil)
	for i := 0; i < 3; i++ {
		if _, err := in.Query(t.Context(), selectP); err != nil {
			t.Fatal(err)
		}
	}
	st := in.Stats()
	if st.Requests != 3 {
		t.Errorf("merged Requests = %d, want 3", st.Requests)
	}
	if st.Rows != 6 {
		t.Errorf("merged Rows = %d, want 6", st.Rows)
	}
	if st.Latency.Count() != 3 {
		t.Errorf("merged Latency.Count = %d, want 3", st.Latency.Count())
	}
	if st.Latency.Sum <= 0 {
		t.Error("merged Latency.Sum should be positive")
	}

	in.ResetStats()
	st = in.Stats()
	if st.Requests != 0 || st.Latency.Count() != 0 {
		t.Errorf("stats after reset: %+v", st)
	}
}
