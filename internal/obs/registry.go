// Package obs is Lusail's operational observability layer: a small
// stdlib-only metrics registry with Prometheus text-format exposition,
// bridges that project the engine's existing instrumentation
// (per-endpoint latency histograms, circuit-breaker state, federation
// pool depth, per-phase timings) into registered metric families, and
// a structured query log built on log/slog with slow-query capture.
//
// The registry serves the same operational role client_golang's would,
// without the dependency: counters, gauges, and histograms identified
// by name plus an ordered label set, rendered in the Prometheus text
// exposition format (text/plain; version=0.0.4). Collectors registered
// with RegisterCollector are invoked at scrape time, so metric
// families can project live engine state (breaker states, in-flight
// requests) without a background sampler.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lusail/internal/trace"
)

// Label is one name/value pair attached to a metric sample.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Family is one metric family as produced at scrape time: every sample
// shares the family's name, help text, and kind.
type Family struct {
	Name string
	Help string
	Kind string // "counter", "gauge", or "histogram"

	Samples []Sample
}

// Sample is one point of a family. Counter and gauge samples use
// Value; histogram samples use Buckets/Sum/Count instead.
type Sample struct {
	Labels []Label
	Value  float64

	// Exemplar, when non-nil on a counter sample, is rendered in the
	// OpenMetrics exposition (ignored in the 0.0.4 text format).
	Exemplar *trace.Exemplar

	// Histogram-only fields. Buckets hold cumulative counts of
	// observations <= Le; the implicit +Inf bucket equals Count.
	Buckets []BucketCount
	Sum     float64
	Count   uint64
	// InfExemplar is the exemplar of the implicit +Inf bucket.
	InfExemplar *trace.Exemplar
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	Le    float64
	Count uint64
	// Exemplar, when non-nil, links this bucket to a recent sampled
	// trace, rendered as its trace_id label so an operator can jump
	// from a latency bucket to the exported trace.
	Exemplar *trace.Exemplar
}

// Registry holds owned metrics (created via Counter/Gauge/Histogram)
// plus collectors that synthesize families at scrape time. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func() []Family
}

type family struct {
	name, help, kind string

	mu     sync.Mutex
	series map[string]*series // key: rendered label set
	order  []string
}

type series struct {
	labels []Label
	val    atomicFloat                    // counter / gauge value
	ex     atomic.Pointer[trace.Exemplar] // latest counter exemplar
	hist   *trace.Histogram               // histogram state (nil otherwise)
}

// atomicFloat is a float64 with atomic add/set via bit-casting.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) set(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// getFamily returns the family for name, creating it with the given
// kind; re-registering an existing name with a different kind panics
// (a programming error, like client_golang's duplicate registration).
func (r *Registry) getFamily(name, help, kind string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// getSeries returns the series for the label set, creating it if new.
func (f *family) getSeries(labels []Label) *series {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter is a monotonically increasing metric.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.val.add(1) }

// Add adds v (must be >= 0 for well-formed exposition).
func (c *Counter) Add(v float64) { c.s.val.add(v) }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.s.val.load() }

// AddWithExemplar adds v and, when ex is non-nil, records it as the
// series' latest exemplar (last-write-wins, like client_golang's
// counters).
func (c *Counter) AddWithExemplar(v float64, ex *trace.Exemplar) {
	c.s.val.add(v)
	if ex != nil {
		c.s.ex.Store(ex)
	}
}

// Counter returns (creating on first use) the counter for name and the
// exact label set. Repeated calls with the same name+labels return the
// same underlying series, so call sites may re-resolve cheaply.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return &Counter{s: r.getFamily(name, help, "counter").getSeries(labels)}
}

// Gauge is a metric that can go up and down.
type Gauge struct{ s *series }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.s.val.set(v) }

// Add adjusts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) { g.s.val.add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.s.val.load() }

// Gauge returns (creating on first use) the gauge for name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return &Gauge{s: r.getFamily(name, help, "gauge").getSeries(labels)}
}

// Histogram is a fixed-bucket distribution with cumulative exposition.
type Histogram struct{ s *series }

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.s.hist.Observe(v, nil) }

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveWithExemplar records one sample and, when ex is non-nil, pins
// it to the bucket the value lands in (last-write-wins per bucket).
func (h *Histogram) ObserveWithExemplar(v float64, ex *trace.Exemplar) {
	h.s.hist.Observe(v, ex)
}

// DefBuckets are the default histogram buckets, spanning 50µs
// cache-hit paths through multi-second federated queries. The 50µs–1ms
// range is deliberately fine: the warm (subquery-cache-hit) query path
// runs at ~260µs p50 and would otherwise collapse into one bucket.
var DefBuckets = []float64{.00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}

// Histogram returns (creating on first use) the histogram for name and
// labels. buckets are upper bounds in increasing order (the +Inf
// bucket is implicit); nil means DefBuckets. The bucket layout is
// fixed by the first call for a given series.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.getFamily(name, help, "histogram")
	s := f.getSeries(labels)
	// Initialize the histogram state once per series.
	f.mu.Lock()
	if s.hist == nil {
		s.hist = trace.NewHistogram(buckets)
	}
	f.mu.Unlock()
	return &Histogram{s: s}
}

// RegisterCollector adds a scrape-time family source: fn is invoked on
// every WriteText and its families are rendered after the owned ones.
// Collectors must be safe for concurrent invocation.
func (r *Registry) RegisterCollector(fn func() []Family) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Gather snapshots every family — owned metrics first, then collector
// output — sorted by family name, samples sorted by label set.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	owned := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		owned = append(owned, f)
	}
	collectors := append([]func() []Family(nil), r.collectors...)
	r.mu.Unlock()

	byName := map[string]*Family{}
	var names []string
	add := func(fam Family) {
		if dst, ok := byName[fam.Name]; ok {
			dst.Samples = append(dst.Samples, fam.Samples...)
			return
		}
		f := fam
		byName[f.Name] = &f
		names = append(names, f.Name)
	}

	for _, f := range owned {
		add(f.snapshot())
	}
	for _, fn := range collectors {
		for _, fam := range fn() {
			add(fam)
		}
	}

	sort.Strings(names)
	out := make([]Family, 0, len(names))
	for _, name := range names {
		f := byName[name]
		sort.Slice(f.Samples, func(i, j int) bool {
			return labelKey(f.Samples[i].Labels) < labelKey(f.Samples[j].Labels)
		})
		out = append(out, *f)
	}
	return out
}

func (f *family) snapshot() Family {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := Family{Name: f.name, Help: f.help, Kind: f.kind}
	for _, key := range f.order {
		s := f.series[key]
		if s.hist != nil {
			out.Samples = append(out.Samples, histSample(s.labels, s.hist.Snapshot()))
			continue
		}
		out.Samples = append(out.Samples, Sample{Labels: s.labels, Value: s.val.load(), Exemplar: s.ex.Load()})
	}
	return out
}

// histSample projects a histogram snapshot into a cumulative-bucket
// sample, carrying each bucket's exemplar.
func histSample(labels []Label, h trace.HistogramSnapshot) Sample {
	s := Sample{Labels: labels, Sum: h.Sum, Buckets: make([]BucketCount, len(h.Bounds))}
	var cum uint64
	for i, le := range h.Bounds {
		cum += uint64(h.Counts[i])
		s.Buckets[i] = BucketCount{Le: le, Count: cum, Exemplar: h.Exemplars[i]}
	}
	s.Count = cum + uint64(h.Counts[len(h.Bounds)])
	s.InfExemplar = h.Exemplars[len(h.Bounds)]
	return s
}

// WriteText renders every family in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WriteText(w io.Writer) error {
	for _, fam := range r.Gather() {
		if fam.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.Name, escapeHelp(fam.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.Name, fam.Kind); err != nil {
			return err
		}
		for _, s := range fam.Samples {
			if err := writeSample(w, fam, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, fam Family, s Sample) error {
	if fam.Kind != "histogram" {
		_, err := fmt.Fprintf(w, "%s%s %s\n", fam.Name, renderLabels(s.Labels), fmtFloat(s.Value))
		return err
	}
	for _, b := range s.Buckets {
		le := append(append([]Label(nil), s.Labels...), Label{Name: "le", Value: fmtFloat(b.Le)})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.Name, renderLabels(le), b.Count); err != nil {
			return err
		}
	}
	inf := append(append([]Label(nil), s.Labels...), Label{Name: "le", Value: "+Inf"})
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.Name, renderLabels(inf), s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam.Name, renderLabels(s.Labels), fmtFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam.Name, renderLabels(s.Labels), s.Count)
	return err
}

// WriteOpenMetrics renders every family in the OpenMetrics 1.0 text
// format, including exemplars on counter samples and histogram
// buckets. Differences from the 0.0.4 format: counter family names
// drop the _total suffix in TYPE/HELP lines (samples keep it), and the
// document ends with # EOF.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	for _, fam := range r.Gather() {
		base := fam.Name
		if fam.Kind == "counter" {
			base = strings.TrimSuffix(base, "_total")
		}
		if fam.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, escapeHelp(fam.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, fam.Kind); err != nil {
			return err
		}
		for _, s := range fam.Samples {
			if err := writeSampleOpenMetrics(w, fam.Kind, base, s); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func writeSampleOpenMetrics(w io.Writer, kind, base string, s Sample) error {
	switch kind {
	case "counter":
		// OpenMetrics requires counter sample names to end in _total.
		_, err := fmt.Fprintf(w, "%s_total%s %s%s\n",
			base, renderLabels(s.Labels), fmtFloat(s.Value), renderExemplar(s.Exemplar))
		return err
	case "histogram":
		for _, b := range s.Buckets {
			le := append(append([]Label(nil), s.Labels...), Label{Name: "le", Value: fmtFloat(b.Le)})
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
				base, renderLabels(le), b.Count, renderExemplar(b.Exemplar)); err != nil {
				return err
			}
		}
		inf := append(append([]Label(nil), s.Labels...), Label{Name: "le", Value: "+Inf"})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
			base, renderLabels(inf), s.Count, renderExemplar(s.InfExemplar)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, renderLabels(s.Labels), fmtFloat(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, renderLabels(s.Labels), s.Count)
		return err
	default:
		_, err := fmt.Fprintf(w, "%s%s %s\n", base, renderLabels(s.Labels), fmtFloat(s.Value))
		return err
	}
}

// renderExemplar renders the " # {trace_id="…"} value ts" suffix
// OpenMetrics attaches to counter and bucket samples; empty for a nil
// exemplar.
func renderExemplar(ex *trace.Exemplar) string {
	if ex == nil {
		return ""
	}
	out := ` # {trace_id="` + ex.TraceID.String() + `"} ` + fmtFloat(ex.Value)
	if !ex.At.IsZero() {
		out += " " + strconv.FormatFloat(float64(ex.At.UnixNano())/1e9, 'f', 3, 64)
	}
	return out
}

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// OpenMetricsContentType is the OpenMetrics 1.0 content type, served
// when the scraper's Accept header asks for it.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Handler returns an http.Handler serving the registry as a /metrics
// scrape target. Scrapers that accept application/openmetrics-text
// (Prometheus does when exemplar scraping is on) get the OpenMetrics
// exposition with exemplars; everyone else gets 0.0.4 text.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", OpenMetricsContentType)
			_ = r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		_ = r.WriteText(w)
	})
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "\x00" + l.Value
	}
	return strings.Join(parts, "\x01")
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

func fmtFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
