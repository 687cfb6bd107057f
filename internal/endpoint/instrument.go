package endpoint

import (
	"sort"

	"lusail/internal/trace"
)

// latencyBounds are the fixed latency-histogram bucket upper bounds,
// in seconds. The range covers everything the simulator and real WAN
// deployments produce: 50µs cache-hit paths (the warm subquery-cache
// workload runs at ~260µs p50, so sub-millisecond resolution matters)
// up to multi-second bound subqueries, plus the implicit +Inf overflow.
var latencyBounds = []float64{
	.00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05,
	.1, .25, .5, 1, 2.5, 5, 10,
}

// NewLatencyHistogram returns an empty endpoint latency histogram, in
// seconds.
func NewLatencyHistogram() *trace.Histogram { return trace.NewHistogram(latencyBounds) }

// EndpointStat pairs an endpoint name with its stats snapshot, for
// per-endpoint reports sorted by name.
type EndpointStat struct {
	Name  string
	Stats Stats
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
		out = append(out, EndpointStat{Name: ep.Name(), Stats: ss.Stats()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
