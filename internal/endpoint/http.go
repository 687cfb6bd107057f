package endpoint

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
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

func (c HandlerConfig) maxBytes() int64 {
	if c.MaxRequestBytes == 0 {
		return DefaultMaxRequestBytes
	}
	if c.MaxRequestBytes < 0 {
		return 0
	}
	return c.MaxRequestBytes
}

// Handler serves the SPARQL protocol over HTTP for one local
// endpoint: GET with ?query= or POST with either an
// application/sparql-query body or form-encoded query parameter
// (optionally gzip-compressed). Results use the SPARQL 1.1 JSON
// format. Log output (mid-stream encoding failures, at debug level)
// goes to slog.Default; use HandlerWithConfig to direct it elsewhere
// or change the request-body cap.
func Handler(l *Local) http.Handler { return HandlerWithConfig(l, HandlerConfig{}) }

// HandlerWithLog is Handler with an explicit structured logger (nil
// falls back to slog.Default).
func HandlerWithLog(l *Local, logger *slog.Logger) http.Handler {
	return HandlerWithConfig(l, HandlerConfig{Logger: logger})
}

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
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			// RFC 9110 requires Allow on 405 responses so clients can
			// discover the supported methods.
			w.Header().Set("Allow", "GET, POST, HEAD")
			http.Error(w, fmt.Sprintf("method %s not allowed", r.Method), http.StatusMethodNotAllowed)
			return
		}
		if r.Method == http.MethodPost {
			if err := wrapRequestBody(w, r, cfg.maxBytes()); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		query, err := extractQuery(r)
		if err != nil {
			// A body over the cap is the client's fault, but unlike a
			// parse error it is actionable: 413 tells the federator's
			// VALUES chunking to bisect and resend smaller requests.
			status := http.StatusBadRequest
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) || errors.Is(err, errBodyTooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), status)
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
		// Content negotiation between the two standard result formats;
		// JSON is the default.
		if strings.Contains(r.Header.Get("Accept"), "application/sparql-results+xml") {
			w.Header().Set("Content-Type", "application/sparql-results+xml")
			if err := res.EncodeXML(w); err != nil {
				// Headers already sent; the failure (usually the client
				// hanging up mid-stream) can only be logged.
				log.Debug("sparql xml encoding failed mid-stream", "err", err)
			}
			return
		}
		w.Header().Set("Content-Type", "application/sparql-results+json")
		if err := res.EncodeJSON(w); err != nil {
			log.Debug("sparql json encoding failed mid-stream", "err", err)
		}
	})
}

// wrapRequestBody bounds the POST body at max bytes
// (http.MaxBytesReader) and transparently inflates gzip request
// bodies, bounding the *inflated* size at the same cap so a tiny
// compressed bomb cannot bypass the limit.
func wrapRequestBody(w http.ResponseWriter, r *http.Request, max int64) error {
	if max > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, max)
	}
	if !strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		return nil
	}
	zr, err := gzip.NewReader(r.Body)
	if err != nil {
		return fmt.Errorf("malformed gzip request body: %w", err)
	}
	var inflated io.Reader = zr
	if max > 0 {
		inflated = &cappedReader{r: zr, remaining: max}
	}
	r.Body = &wrappedBody{Reader: inflated, closer: r.Body}
	// The body the handler sees is now plain text.
	r.Header.Del("Content-Encoding")
	r.ContentLength = -1
	return nil
}

// cappedReader errors with errBodyTooLarge once more than remaining
// bytes have been read.
type cappedReader struct {
	r         io.Reader
	remaining int64
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.remaining < 0 {
		return 0, errBodyTooLarge
	}
	n, err := c.r.Read(p)
	c.remaining -= int64(n)
	if c.remaining < 0 {
		return 0, errBodyTooLarge
	}
	return n, err
}

// wrappedBody pairs a replacement reader with the original body's
// Close (the connection's body must still be closed, not the gzip
// stream).
type wrappedBody struct {
	io.Reader
	closer io.Closer
}

func (b *wrappedBody) Close() error { return b.closer.Close() }

func extractQuery(r *http.Request) (string, error) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query().Get("query")
		if q == "" {
			return "", fmt.Errorf("missing query parameter")
		}
		return q, nil
	default: // POST; Handler rejected other methods already
		ct := r.Header.Get("Content-Type")
		// Match the media type only: a parameter suffix such as
		// "application/sparql-query; charset=utf-8" is still a direct
		// query body.
		if strings.HasPrefix(ct, "application/sparql-query") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				return "", err
			}
			return string(body), nil
		}
		if err := r.ParseForm(); err != nil {
			return "", err
		}
		q := r.PostForm.Get("query")
		if q == "" {
			return "", fmt.Errorf("missing query parameter")
		}
		return q, nil
	}
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
