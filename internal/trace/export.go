package trace

import "time"

// SpanData is one span flattened for export: identity, timing, and
// attributes frozen at collection time. Exporters serialize SpanData —
// never live *Span values — so the encoder needs no locking.
type SpanData struct {
	TraceID  TraceID
	SpanID   SpanID
	ParentID SpanID
	Name     string
	Kind     SpanKind
	Start    time.Time
	End      time.Time
	Attrs    []Attr
	// Err is the error annotation ("error" attribute) if present, for
	// mapping onto an export format's status field.
	Err string
}

// Spans flattens the trace into export records, pre-order. Spans that
// were never ended inherit their recorded (zero) duration, so
// End == Start for them rather than extending to collection time.
func (t *Trace) Spans() []SpanData {
	if t == nil || t.Root == nil {
		return nil
	}
	var out []SpanData
	collect(t.Root, &out)
	return out
}

func collect(s *Span, out *[]SpanData) {
	s.mu.Lock()
	d := SpanData{
		TraceID:  s.traceID,
		SpanID:   s.id,
		ParentID: s.parent,
		Name:     s.Name,
		Kind:     s.kind,
		Start:    s.start,
		End:      s.start.Add(s.dur),
		Attrs:    append([]Attr(nil), s.attrs...),
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, a := range d.Attrs {
		if a.Key == "error" {
			d.Err = fmtVal(a.Val)
			break
		}
	}
	*out = append(*out, d)
	for _, c := range children {
		collect(c, out)
	}
}

// Sink receives completed traces. Implementations must not block: the
// query path calls ExportTrace synchronously after each execution, so
// sinks enqueue and return (dropping when full), as the obs
// SpanExporter does.
type Sink interface {
	ExportTrace(t *Trace)
}
