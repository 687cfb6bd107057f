package endpoint

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lusail/internal/sparql"
	"lusail/internal/trace"
)

// DefaultMaxRequestBytes caps SPARQL protocol request bodies: large
// enough for any realistic query (bound phase-2 VALUES blocks
// included), small enough that a malformed or malicious client cannot
// balloon server memory through an unbounded body read.
const DefaultMaxRequestBytes = 4 << 20

// errBodyTooLarge reports a gzip request body that inflated past the
// configured cap.
var errBodyTooLarge = errors.New("request body too large")

// DataVersionHeader is the ETag-style response header carrying the
// endpoint's monotonic data version. The handler stamps it on every
// query response (the version the results were computed against, read
// before evaluation so a concurrent mutation can only make the stamp
// conservative) and on HEAD responses, which serve as the cheap
// version probe.
const DataVersionHeader = "X-Lusail-Data-Version"

// ErrNoDataVersion reports a reachable endpoint that does not expose
// a data version (e.g. an HTTP endpoint not served by lusail). The
// coherence layer treats it as "unverifiable", not as a probe failure.
var ErrNoDataVersion = errors.New("endpoint exposes no data version")

// HandlerConfig tunes the SPARQL protocol handler.
type HandlerConfig struct {
	// Logger receives debug output (mid-stream encoding failures);
	// nil falls back to slog.Default.
	Logger *slog.Logger
	// MaxRequestBytes caps POST bodies (after gzip inflation, when
	// the client compresses). 0 selects DefaultMaxRequestBytes;
	// negative disables the cap. Oversized requests get HTTP 413,
	// which the federator's adaptive VALUES chunking treats as a
	// signal to bisect.
	MaxRequestBytes int64
	// TraceSink, when non-nil, receives a server-side trace per
	// request. The handler extracts the caller's traceparent header,
	// so a federator's query and every endpoint's server-side spans
	// share one trace ID — a single stitched trace per federated
	// query. Requests without a traceparent get their own trace.
	TraceSink trace.Sink
	// ServiceName labels the server-side spans (default: the local
	// endpoint's name).
	ServiceName string
}

// Handler serves the SPARQL protocol over HTTP for one local
// endpoint: DecodeQueryRequest reads the query, and the results go out
// in the format the Accept header names (JSON by default; XML, CSV and
// TSV). Log output (mid-stream encoding failures, at debug level) goes
// to slog.Default; use HandlerWithConfig to direct it elsewhere or
// change the request-body cap.
func Handler(l *Local) http.Handler { return HandlerWithConfig(l, HandlerConfig{}) }

// HandlerWithConfig is Handler with explicit configuration.
func HandlerWithConfig(l *Local, cfg HandlerConfig) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		log := cfg.Logger
		if log == nil {
			log = slog.Default()
		}
		if r.Method == http.MethodHead {
			// The version probe: HEAD answers with just the data-version
			// header, costing no query evaluation.
			w.Header().Set(DataVersionHeader, strconv.FormatUint(l.dataVersion.Load(), 10))
			w.WriteHeader(http.StatusNoContent)
			return
		}
		query, ok := DecodeQueryRequest(w, r, cfg.MaxRequestBytes, "GET, POST, HEAD")
		if !ok {
			return
		}
		ctx := r.Context()
		var root *trace.Span // nil without a sink; Span methods are nil-safe
		if cfg.TraceSink != nil {
			// Join the caller's trace (traceparent) or start a fresh
			// one: the endpoint's server-side span carries the
			// federator's trace ID, so the exported federation renders
			// as one stitched tree.
			ctx = trace.Extract(ctx, r.Header)
			service := cfg.ServiceName
			if service == "" {
				service = l.Name()
			}
			tr := trace.NewFromContext(ctx, "endpoint-query")
			root = tr.Root
			root.SetKind(trace.KindServer)
			root.Set("endpoint", service)
			ctx = trace.WithSpan(ctx, root)
			defer func() {
				root.End()
				cfg.TraceSink.ExportTrace(tr)
			}()
		}
		// Read the version before evaluating: if churn lands mid-query
		// the stamp is older than the data some rows saw, which only
		// makes the client-side fence more conservative, never less.
		dataVersion := l.dataVersion.Load()
		res, err := l.Query(ctx, query)
		if err != nil {
			root.Set("error", err.Error())
			// The SPARQL protocol distinguishes client faults from
			// server faults: only a malformed query is the client's
			// fault (400); evaluation and internal errors are 500 so
			// remote callers can classify them as retryable.
			var pe *ParseError
			if errors.As(err, &pe) {
				http.Error(w, err.Error(), http.StatusBadRequest)
			} else {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		root.Set("rows", int64(res.Len()))
		w.Header().Set(DataVersionHeader, strconv.FormatUint(dataVersion, 10))
		f := sparql.Negotiate(r.Header.Get("Accept"))
		w.Header().Set("Content-Type", f.MediaType)
		if err := res.Encode(f.NewWriter(w)); err != nil {
			// Headers already sent; the failure (usually the client
			// hanging up mid-stream) can only be logged.
			log.Debug("sparql result encoding failed mid-stream", "format", f.Name, "err", err)
		}
	})
}

// errMethod reports a request method the SPARQL protocol does not
// serve.
var errMethod = errors.New("method not allowed")

// DecodeQueryRequest reads the query text of a SPARQL protocol
// request: GET with ?query=, or POST with a form-encoded query
// parameter or an application/sparql-query body, either of them
// optionally gzip-compressed. POST bodies are capped at maxBytes after
// inflation (0 selects DefaultMaxRequestBytes; negative disables the
// cap). On failure it writes the error response and returns false:
// 405 naming the allow methods, 413 for a body over the cap (the
// federator's VALUES chunking reads it as a signal to bisect), and
// 400 for anything else.
func DecodeQueryRequest(w http.ResponseWriter, r *http.Request, maxBytes int64, allow string) (string, bool) {
	query, err := decodeQuery(w, r, maxBytes)
	if err == nil {
		return query, true
	}
	status := http.StatusBadRequest
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, errMethod):
		// RFC 9110 requires Allow on 405 responses so clients can
		// discover the supported methods.
		w.Header().Set("Allow", allow)
		status = http.StatusMethodNotAllowed
	case errors.As(err, &mbe) || errors.Is(err, errBodyTooLarge):
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
	return "", false
}

func decodeQuery(w http.ResponseWriter, r *http.Request, maxBytes int64) (string, error) {
	switch r.Method {
	case http.MethodGet:
		return nonEmptyQuery(r.URL.Query().Get("query"))
	case http.MethodPost:
	default:
		return "", fmt.Errorf("%w: %s", errMethod, r.Method)
	}
	// Match the media type only: a parameter suffix such as
	// "application/sparql-query; charset=utf-8" is still a direct
	// query body.
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct != "application/sparql-query" && ct != "application/x-www-form-urlencoded" {
		return "", errNoQuery
	}
	body, err := readBody(w, r, maxBytes)
	if err != nil {
		return "", err
	}
	if ct == "application/sparql-query" {
		return string(body), nil
	}
	form, err := url.ParseQuery(string(body))
	if err != nil {
		return "", err
	}
	return nonEmptyQuery(form.Get("query"))
}

var errNoQuery = errors.New("missing query parameter")

func nonEmptyQuery(q string) (string, error) {
	if q == "" {
		return "", errNoQuery
	}
	return q, nil
}

// readBody reads a POST body, inflating it when it is gzip-encoded,
// and fails once it passes maxBytes (0 selects DefaultMaxRequestBytes;
// negative disables the cap). The cap bounds the wire bytes
// (http.MaxBytesReader) and the inflated bytes alike, so a tiny
// compressed bomb cannot bypass it.
func readBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, error) {
	if maxBytes == 0 {
		maxBytes = DefaultMaxRequestBytes
	}
	var body io.Reader = r.Body
	if maxBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, maxBytes)
	}
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		zr, err := gzip.NewReader(body)
		if err != nil {
			return nil, fmt.Errorf("malformed gzip request body: %w", err)
		}
		body = zr
	}
	if maxBytes < 0 {
		return io.ReadAll(body)
	}
	data, err := io.ReadAll(io.LimitReader(body, maxBytes+1))
	if err == nil && int64(len(data)) > maxBytes {
		err = errBodyTooLarge
	}
	return data, err
}

// HTTPEndpoint is a client-side Endpoint that talks to a remote SPARQL
// endpoint over HTTP. By default it rides the process-wide tuned
// transport (SharedTransport) so concurrent subqueries to the same
// endpoint multiply pooled keep-alive connections instead of queueing
// behind http.DefaultTransport's two idle connections per host.
type HTTPEndpoint struct {
	name     string
	url      string
	client   *http.Client
	gzipMin  int // gzip-encode request bodies at or above this size; 0 = never
	requests atomic.Int64
	rows     atomic.Int64
	bytes    atomic.Int64
}

// HTTPOption customizes an HTTPEndpoint.
type HTTPOption func(*HTTPEndpoint)

// WithHTTPClient replaces the endpoint's HTTP client entirely (tests,
// exotic transports). The caller owns timeout configuration.
func WithHTTPClient(c *http.Client) HTTPOption {
	return func(h *HTTPEndpoint) { h.client = c }
}

// WithTransport keeps the default request timeout but swaps the
// transport, e.g. NewTransport(TransportConfig{...}) with custom pool
// sizes.
func WithTransport(t http.RoundTripper) HTTPOption {
	return func(h *HTTPEndpoint) { h.client.Transport = t }
}

// WithRequestTimeout bounds each request end to end (dial through
// body); zero means no client-side bound beyond the caller's context.
func WithRequestTimeout(d time.Duration) HTTPOption {
	return func(h *HTTPEndpoint) { h.client.Timeout = d }
}

// WithGzipRequests gzip-encodes request bodies of at least minBytes
// (Content-Encoding: gzip). Bound phase-2 subqueries carry VALUES
// blocks of thousands of IRIs that compress 5-10x; the serving side
// (Handler) decodes transparently. minBytes <= 0 picks a sensible
// default.
func WithGzipRequests(minBytes int) HTTPOption {
	return func(h *HTTPEndpoint) {
		if minBytes <= 0 {
			minBytes = 1 << 12
		}
		h.gzipMin = minBytes
	}
}

// NewHTTP returns an endpoint speaking the SPARQL protocol at url.
func NewHTTP(name, endpointURL string, opts ...HTTPOption) *HTTPEndpoint {
	h := &HTTPEndpoint{
		name: name,
		url:  endpointURL,
		client: &http.Client{
			Transport: SharedTransport(),
			Timeout:   5 * time.Minute,
		},
	}
	for _, opt := range opts {
		opt(h)
	}
	return h
}

// Name returns the endpoint name.
func (h *HTTPEndpoint) Name() string { return h.name }

// URL returns the endpoint URL.
func (h *HTTPEndpoint) URL() string { return h.url }

// gzipWriterPool recycles gzip writers across requests; a gzip.Writer
// is ~256KiB of buffers that would otherwise be reallocated per
// compressed request.
var gzipWriterPool = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

// requestBody encodes the form, optionally gzip-compressing large
// bodies, and returns the reader plus the Content-Encoding to set.
func (h *HTTPEndpoint) requestBody(form url.Values) (io.Reader, string) {
	enc := form.Encode()
	if h.gzipMin == 0 || len(enc) < h.gzipMin {
		return strings.NewReader(enc), ""
	}
	var buf bytes.Buffer
	zw := gzipWriterPool.Get().(*gzip.Writer)
	zw.Reset(&buf)
	zw.Write([]byte(enc)) // writes to bytes.Buffer cannot fail
	if err := zw.Close(); err != nil {
		gzipWriterPool.Put(zw)
		return strings.NewReader(enc), ""
	}
	gzipWriterPool.Put(zw)
	return &buf, "gzip"
}

// Query posts the query and decodes the JSON results as they stream
// off the wire.
func (h *HTTPEndpoint) Query(ctx context.Context, query string) (*sparql.Results, error) {
	h.requests.Add(1)
	body, encoding := h.requestBody(url.Values{"query": {query}})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Accept", "application/sparql-results+json")
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	// Propagate the issuing span's identity (W3C traceparent) so a
	// lusail-served endpoint joins this query's trace.
	trace.Inject(ctx, req.Header)
	resp, err := h.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Transport-level failures (connection refused, reset, DNS)
		// are transient: the endpoint may be back on the next attempt.
		return nil, Transient(fmt.Errorf("endpoint %s: %w", h.name, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		// HTTPError carries the status so Retryable can classify 5xx
		// (server-side, retryable) vs 4xx (permanent).
		return nil, &HTTPError{Endpoint: h.name, Status: resp.StatusCode, Body: strings.TrimSpace(string(body))}
	}
	res, err := sparql.DecodeJSON(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("endpoint %s: %w", h.name, err)
	}
	// Drain the trailing bytes the decoder did not consume (typically
	// the encoder's final newline): a body closed before EOF forces
	// the transport to discard the connection instead of returning it
	// to the keep-alive pool.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	h.rows.Add(int64(res.Len()))
	h.bytes.Add(res.ApproxWireBytes())
	return res, nil
}

// DataVersion probes the endpoint's current data version with a HEAD
// request (the server answers from an atomic counter — no query
// evaluation). Implements DataVersioner. Returns ErrNoDataVersion when
// the server answers but exposes no version header.
func (h *HTTPEndpoint) DataVersion(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, h.url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		return 0, Transient(fmt.Errorf("endpoint %s: version probe: %w", h.name, err))
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return 0, &HTTPError{Endpoint: h.name, Status: resp.StatusCode, Body: "version probe"}
	}
	raw := resp.Header.Get(DataVersionHeader)
	if raw == "" {
		return 0, fmt.Errorf("endpoint %s: %w", h.name, ErrNoDataVersion)
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("endpoint %s: malformed data version %q: %v", h.name, raw, err)
	}
	return v, nil
}

// Stats returns the client-side counters.
func (h *HTTPEndpoint) Stats() Stats {
	return Stats{Requests: h.requests.Load(), Rows: h.rows.Load(), Bytes: h.bytes.Load()}
}

// ResetStats zeroes the counters.
func (h *HTTPEndpoint) ResetStats() {
	h.requests.Store(0)
	h.rows.Store(0)
	h.bytes.Store(0)
}
