// Package trace records per-query execution traces as a span tree:
// one span per pipeline stage (source selection, GJV checks, COUNT
// estimation, phase-1 subqueries, bound phase-2 blocks, hash joins,
// left joins), each carrying wall-clock duration plus counter
// attributes (requests, rows, retries, breaker rejections).
//
// The recorder rides the context: every concurrent query execution
// gets its own tree, so traces never share mutable state across
// executions, and the endpoint clients add each request's fault events
// to the span its context carries, which makes the tree the query's
// only record of them. All methods are nil-safe — instrumented code
// paths call StartChild/Set/End unconditionally and pay nothing when
// no trace is attached.
//
// The package also holds the one exemplar type, which links a metric
// observation to a sampled trace, and the one live histogram type
// that pins exemplars per bucket.
package trace

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are rendered with
// %v; counters are int64, durations time.Duration, labels strings.
type Attr struct {
	Key string
	Val any
}

// SpanKind mirrors the OpenTelemetry span-kind enum for the three
// roles Lusail spans play: internal pipeline stages, the server side
// of an inbound SPARQL protocol request, and the client side of an
// outgoing endpoint call.
type SpanKind int

const (
	KindInternal SpanKind = iota
	KindServer
	KindClient
)

// Span is one timed stage of a query execution. Child spans may be
// appended concurrently (e.g. phase-1 subqueries evaluated in
// parallel); readers must not inspect a span tree until the execution
// that produces it has returned.
//
// Every span carries a W3C-compatible identity: a 16-byte trace ID
// shared by the whole tree (and, via traceparent propagation, by the
// server-side spans of every endpoint the query touched) plus its own
// 8-byte span ID and its parent's.
type Span struct {
	Name string

	traceID TraceID
	id      SpanID

	mu       sync.Mutex
	parent   SpanID
	kind     SpanKind
	sampled  bool
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Trace is a complete query trace: the root span plus bookkeeping.
type Trace struct {
	Root *Span
}

// New starts a trace whose root span is named name, under a fresh
// trace ID, head-sampled by default. Use NewFromContext to join an
// inbound caller's trace instead.
func New(name string) *Trace {
	root := newSpan(name)
	root.traceID = NewTraceID()
	root.sampled = true
	return &Trace{Root: root}
}

// NewFromContext starts a trace whose root span joins the remote
// parent attached to ctx (an inbound traceparent extracted by
// trace.Extract): the new tree shares the caller's trace ID, its root
// parents the caller's span, and the caller's sampling decision is
// honoured. Without a remote parent it is exactly New.
func NewFromContext(ctx context.Context, name string) *Trace {
	sc, ok := RemoteParentFrom(ctx)
	if !ok {
		return New(name)
	}
	root := newSpan(name)
	root.traceID = sc.TraceID
	root.parent = sc.SpanID
	root.sampled = sc.Sampled
	return &Trace{Root: root}
}

func newSpan(name string) *Span {
	return &Span{Name: name, id: NewSpanID(), start: time.Now()}
}

// ID returns the trace's ID (zero for a nil trace).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.Root.TraceID()
}

// TraceID returns the ID of the trace the span belongs to.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// ID returns the span's own ID.
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// ParentID returns the parent span's ID (zero for a local root).
func (s *Span) ParentID() SpanID {
	if s == nil {
		return SpanID{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parent
}

// Kind returns the span's kind (KindInternal unless SetKind was
// called).
func (s *Span) Kind() SpanKind {
	if s == nil {
		return KindInternal
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kind
}

// SetKind marks the span's role (server side of an inbound request,
// client side of an outgoing call).
func (s *Span) SetKind(k SpanKind) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.kind = k
	s.mu.Unlock()
}

// Sampled reports the span's head-sampling decision.
func (s *Span) Sampled() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sampled
}

// SetSampled overrides the head-sampling decision. Call it on a root
// span before opening children: children copy the flag at creation.
func (s *Span) SetSampled(v bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.sampled = v
	s.mu.Unlock()
}

// StartChild opens a child span under s. It is nil-safe: on a nil
// receiver it returns nil, and every Span method on the nil result is
// a no-op, so call sites need no recorder checks. The child inherits
// the trace ID and sampling decision, with s as its parent.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	c.traceID = s.traceID
	c.parent = s.id
	s.mu.Lock()
	c.sampled = s.sampled
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stamps the span's duration. Repeated calls keep the first stamp.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// SetDuration overrides the span's duration (used when the caller
// measures the stage itself, e.g. per-task timings from the request
// handler).
func (s *Span) SetDuration(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.dur = d
	s.ended = true
	s.mu.Unlock()
}

// Start returns when the span was opened.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the span's recorded duration (zero until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Set annotates the span, replacing any previous value for key.
func (s *Span) Set(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = val
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
}

// Add adds n to the integer annotation key (starting from 0 when
// absent), under the span's lock: concurrent requests of one phase
// count their fault events on the phase span this way.
func (s *Span) Add(key string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			v, _ := s.attrs[i].Val.(int64)
			s.attrs[i].Val = v + n
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: n})
}

// Get returns the annotation for key, or nil.
func (s *Span) Get(key string) any {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return nil
}

// Int returns the annotation for key as an int64 (0 when absent or not
// an integer).
func (s *Span) Int(key string) int64 {
	switch v := s.Get(key).(type) {
	case int64:
		return v
	case int:
		return int64(v)
	default:
		return 0
	}
}

// Attrs returns a snapshot of the span's annotations in insertion
// order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Children returns a snapshot of the child spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Find returns the first span named name in a pre-order walk of the
// subtree rooted at s, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children() {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// FindAll returns every span named name in a pre-order walk.
func (s *Span) FindAll(name string) []*Span {
	if s == nil {
		return nil
	}
	var out []*Span
	if s.Name == name {
		out = append(out, s)
	}
	for _, c := range s.Children() {
		out = append(out, c.FindAll(name)...)
	}
	return out
}

// String renders the span tree with durations and attributes, one span
// per line, children indented:
//
//	query                          12.3ms
//	  source-selection              1.2ms  asks=4
//	  phase1                        8.1ms
//	    sq0                         8.0ms  rows=120 requests=2
func (s *Span) String() string {
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

func (s *Span) render(b *strings.Builder, depth int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	name, dur := s.Name, s.dur
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%-*s %10s", indent, 34-len(indent), name, fmtDur(dur))
	for _, a := range attrs {
		fmt.Fprintf(b, "  %s=%s", a.Key, fmtVal(a.Val))
	}
	b.WriteString("\n")
	for _, c := range children {
		c.render(b, depth+1)
	}
}

// fmtVal renders an attribute value on one line: string values are
// collapsed to their first line (attributes like a subquery's full
// SPARQL text are for machine matching, not tree display).
func fmtVal(v any) string {
	s := fmt.Sprint(v)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " …"
	}
	return s
}

// fmtDur renders durations compactly at microsecond granularity.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// String renders the whole trace.
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	return t.Root.String()
}

// SumInt totals attribute key over the subtree rooted at s.
func (s *Span) SumInt(key string) int64 {
	if s == nil {
		return 0
	}
	total := s.Int(key)
	for _, c := range s.Children() {
		total += c.SumInt(key)
	}
	return total
}
