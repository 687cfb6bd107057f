package endpoint

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// latencyBuckets are the fixed histogram bucket upper bounds. The
// range covers everything the simulator and real WAN deployments
// produce: 50µs cache-hit paths (the warm subquery-cache workload runs
// at ~260µs p50, so sub-millisecond resolution matters) up to
// multi-second bound subqueries. The last bucket is the +Inf overflow.
var latencyBuckets = [...]time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

// numBuckets includes the +Inf overflow bucket.
const numBuckets = len(latencyBuckets) + 1

// LatencyBucketBounds returns the histogram's finite bucket upper
// bounds in increasing order (the +Inf overflow bucket is implicit).
// Exposition bridges use it to project LatencyHistogram counts into
// Prometheus-style cumulative buckets.
func LatencyBucketBounds() []time.Duration {
	out := make([]time.Duration, len(latencyBuckets))
	copy(out[:], latencyBuckets[:])
	return out
}

// LatencyHistogram is a fixed-bucket latency distribution snapshot.
// The zero value is an empty histogram.
type LatencyHistogram struct {
	// Counts[i] counts observations <= latencyBuckets[i]; the final
	// element is the +Inf overflow bucket.
	Counts [numBuckets]int64
	// Sum is the total observed latency (for means).
	Sum time.Duration
}

// Observe records one latency sample.
func (h *LatencyHistogram) Observe(d time.Duration) {
	h.Counts[bucketOf(d)]++
	h.Sum += d
}

func bucketOf(d time.Duration) int {
	for i, ub := range latencyBuckets {
		if d <= ub {
			return i
		}
	}
	return numBuckets - 1
}

// Add merges another histogram into h.
func (h *LatencyHistogram) Add(o LatencyHistogram) {
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Sum += o.Sum
}

// Count returns the number of observations.
func (h LatencyHistogram) Count() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Mean returns the average observed latency (0 when empty).
func (h LatencyHistogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum / time.Duration(n)
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 < q <= 1), e.g. Quantile(0.99) is a p99 latency bound.
// Samples in the overflow bucket report the largest finite bound.
func (h LatencyHistogram) Quantile(q float64) time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := int64(q*float64(n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			if i < len(latencyBuckets) {
				return latencyBuckets[i]
			}
			break
		}
	}
	return latencyBuckets[len(latencyBuckets)-1]
}

// String renders the non-empty buckets, e.g. "<=1ms:12 <=5ms:3".
func (h LatencyHistogram) String() string {
	var parts []string
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if i < len(latencyBuckets) {
			parts = append(parts, fmt.Sprintf("<=%s:%d", latencyBuckets[i], c))
		} else {
			parts = append(parts, fmt.Sprintf(">%s:%d", latencyBuckets[len(latencyBuckets)-1], c))
		}
	}
	if len(parts) == 0 {
		return "empty"
	}
	return strings.Join(parts, " ")
}

// LatencyExemplar links one latency bucket to a recent traced call,
// for OpenMetrics exemplar exposition: the trace to look at when a
// bucket's count spikes.
type LatencyExemplar struct {
	TraceID string
	Value   time.Duration
	At      time.Time
}

// EndpointStat pairs an endpoint name with its stats snapshot, for
// per-endpoint reports sorted by name.
type EndpointStat struct {
	Name  string
	Stats Stats
	// Exemplars aligns with LatencyBucketBounds (+Inf appended): the
	// latest traced call per latency bucket, nil where untraced.
	// Populated only for Clients.
	Exemplars []*LatencyExemplar
}

// PerEndpointStats snapshots the stats of every endpoint exposing
// them, sorted by endpoint name.
func PerEndpointStats(eps []Endpoint) []EndpointStat {
	var out []EndpointStat
	for _, ep := range eps {
		ss, ok := ep.(StatsSource)
		if !ok {
			continue
		}
		st := EndpointStat{Name: ep.Name(), Stats: ss.Stats()}
		if c, ok := ep.(*Client); ok {
			st.Exemplars = c.LatencyExemplars()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
