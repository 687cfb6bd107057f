package trace

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Exemplar links one observation to the sampled trace that made it:
// the raw trace ID, the observed value and when it was observed.
// Metric exposition renders the ID as the trace_id label at scrape
// time.
type Exemplar struct {
	TraceID TraceID
	Value   float64
	At      time.Time
}

// NewExemplar returns the exemplar of value observed under sp, or nil
// when sp is nil, unsampled or has a zero trace ID: an unsampled
// trace never reaches the collector, so linking to it would dangle.
func NewExemplar(sp *Span, value float64) *Exemplar {
	if !sp.Sampled() || sp.TraceID().IsZero() {
		return nil
	}
	return &Exemplar{TraceID: sp.TraceID(), Value: value, At: time.Now()}
}

// Histogram is a fixed-bucket histogram safe for concurrent use: an
// atomic count per bucket, an atomic sum and the latest exemplar per
// bucket (last write wins). Bounds are finite upper bounds in
// increasing order; the +Inf overflow bucket is implicit.
type Histogram struct {
	bounds    []float64
	counts    []atomic.Int64 // len(bounds)+1; the last is +Inf
	sum       atomic.Uint64  // float64 bits
	exemplars []atomic.Pointer[Exemplar]
}

// NewHistogram returns an empty histogram over bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records v in the first bucket whose bound is >= v and, when
// ex is non-nil, pins ex to that bucket.
func (h *Histogram) Observe(v float64, ex *Exemplar) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	if ex != nil {
		h.exemplars[i].Store(ex)
	}
}

// Reset zeroes the counts and the sum; exemplars stay until replaced.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:    h.bounds,
		Counts:    make([]int64, len(h.counts)),
		Sum:       math.Float64frombits(h.sum.Load()),
		Exemplars: make([]*Exemplar, len(h.exemplars)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Exemplars[i] = h.exemplars[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. The zero
// value is an empty histogram.
type HistogramSnapshot struct {
	// Bounds are the finite bucket upper bounds, shared with the
	// histogram: read-only.
	Bounds []float64
	// Counts[i] counts observations <= Bounds[i]; the last element is
	// the +Inf overflow bucket.
	Counts []int64
	Sum    float64
	// Exemplars aligns with Counts, nil where no exemplar was pinned.
	Exemplars []*Exemplar
}

// Add merges o into s; both must share bounds unless one is empty.
// Per bucket the later exemplar wins.
func (s *HistogramSnapshot) Add(o HistogramSnapshot) {
	if len(o.Counts) == 0 {
		return
	}
	if len(s.Counts) == 0 {
		s.Bounds = o.Bounds
		s.Counts = make([]int64, len(o.Counts))
		s.Exemplars = make([]*Exemplar, len(o.Counts))
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
		if ex := o.Exemplars[i]; ex != nil && (s.Exemplars[i] == nil || ex.At.After(s.Exemplars[i].At)) {
			s.Exemplars[i] = ex
		}
	}
	s.Sum += o.Sum
}

// Count returns the number of observations.
func (s HistogramSnapshot) Count() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return s.Sum / float64(n)
}

// Quantile returns the upper bound of the bucket holding the q-th
// quantile (0 < q <= 1), e.g. Quantile(0.99) bounds the p99.
// Observations in the overflow bucket report the largest finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	n := s.Count()
	if n == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := max(int64(q*float64(n)+0.999999), 1)
	var seen int64
	for i, c := range s.Counts[:len(s.Bounds)] {
		if seen += c; seen >= rank {
			return s.Bounds[i]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Seconds converts a histogram value in seconds to a duration.
func Seconds(v float64) time.Duration {
	return time.Duration(math.Round(v * float64(time.Second)))
}
