// In-process SLO engine: multi-window rolling counters evaluating
// configurable objectives (availability, latency) with fast/slow
// burn-rate computation, following the multiwindow multi-burn-rate
// alerting approach of the SRE workbook. A burn rate of 1 means the
// error budget is being consumed exactly at the rate that exhausts it
// at the end of the (implied 30-day) budget period; a fast-window burn
// of 14 means a page-worthy incident.

package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// SLOConfig declares the objectives.
type SLOConfig struct {
	// AvailabilityTarget is the fraction of queries that must succeed
	// (default 0.99). Burn rate = errorRatio / (1 - target).
	AvailabilityTarget float64
	// LatencyTarget is the fraction of queries that must finish under
	// LatencyThreshold (default 0.99).
	LatencyTarget float64
	// LatencyThreshold is the latency objective's cut-off (default 1s).
	LatencyThreshold time.Duration
	// Now is the clock (default time.Now; injectable for tests).
	Now func() time.Time
}

// The evaluation windows and burn threshold are the SRE workbook's
// multiwindow pair: a short window that catches sharp budget burns, a
// long one that catches slow leaks, and a burn rate of 1 (budget spent
// faster than sustainable) as the line both must cross.
const (
	sloFastWindow    = 5 * time.Minute
	sloSlowWindow    = time.Hour
	sloBinWidth      = sloFastWindow / 10 // rolling-counter resolution
	sloBurnThreshold = 1.0
)

// sloBin is one time-aligned counter bin.
type sloBin struct {
	idx   int64 // bin index = unixNano / binWidth
	total int64
	errs  int64 // failed queries
	slow  int64 // queries over LatencyThreshold
}

// SLO evaluates the configured objectives over rolling counters.
// Record is cheap (a mutex and two adds) and safe for concurrent use.
type SLO struct {
	cfg  SLOConfig
	mu   sync.Mutex
	bins []sloBin // ring, newest last, spans >= sloSlowWindow
}

// WindowBurn is one objective's burn rate over one window.
type WindowBurn struct {
	Window   string  `json:"window"` // "fast" or "slow"
	Seconds  float64 `json:"window_seconds"`
	Total    int64   `json:"total"`
	Bad      int64   `json:"bad"`
	BadRatio float64 `json:"bad_ratio"`
	BurnRate float64 `json:"burn_rate"`
}

// ObjectiveStatus is one objective's full evaluation.
type ObjectiveStatus struct {
	Name    string       `json:"name"` // "availability" or "latency"
	Target  float64      `json:"target"`
	Windows []WindowBurn `json:"windows"`
	// Burning reports whether every window exceeds the burn threshold.
	Burning bool `json:"burning"`
}

// SLOStatus is the full engine snapshot served on /debug/slo.
type SLOStatus struct {
	Objectives []ObjectiveStatus `json:"objectives"`
	// Degraded is true when any objective is burning in both windows.
	Degraded bool `json:"degraded"`
}

// NewSLO builds the engine, applying defaults.
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.AvailabilityTarget <= 0 || cfg.AvailabilityTarget >= 1 {
		cfg.AvailabilityTarget = 0.99
	}
	if cfg.LatencyTarget <= 0 || cfg.LatencyTarget >= 1 {
		cfg.LatencyTarget = 0.99
	}
	if cfg.LatencyThreshold <= 0 {
		cfg.LatencyThreshold = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &SLO{cfg: cfg}
}

// Record adds one query outcome.
func (s *SLO) Record(dur time.Duration, failed bool) {
	if s == nil {
		return
	}
	idx := s.cfg.Now().UnixNano() / int64(sloBinWidth)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.bins)
	if n == 0 || s.bins[n-1].idx != idx {
		s.bins = append(s.bins, sloBin{idx: idx})
		s.prune(idx)
		n = len(s.bins)
	}
	b := &s.bins[n-1]
	b.total++
	if failed {
		b.errs++
	}
	if dur > s.cfg.LatencyThreshold {
		b.slow++
	}
}

// prune drops bins older than the slow window. Caller holds mu.
func (s *SLO) prune(nowIdx int64) {
	span := int64(sloSlowWindow) / int64(sloBinWidth)
	cut := nowIdx - span
	i := 0
	for i < len(s.bins) && s.bins[i].idx <= cut {
		i++
	}
	if i > 0 {
		s.bins = append(s.bins[:0], s.bins[i:]...)
	}
}

// window sums the bins inside w ending now.
func (s *SLO) window(nowIdx int64, w time.Duration) (total, errs, slow int64) {
	span := int64(w) / int64(sloBinWidth)
	cut := nowIdx - span
	for _, b := range s.bins {
		if b.idx > cut {
			total += b.total
			errs += b.errs
			slow += b.slow
		}
	}
	return
}

// burn computes the burn rate for bad/total against target.
func burn(bad, total int64, target float64) (ratio, rate float64) {
	if total == 0 {
		return 0, 0
	}
	ratio = float64(bad) / float64(total)
	budget := 1 - target
	if budget <= 0 {
		return ratio, 0
	}
	return ratio, ratio / budget
}

// Snapshot evaluates every objective over both windows.
func (s *SLO) Snapshot() SLOStatus {
	if s == nil {
		return SLOStatus{}
	}
	nowIdx := s.cfg.Now().UnixNano() / int64(sloBinWidth)
	s.mu.Lock()
	defer s.mu.Unlock()

	type window struct {
		name string
		d    time.Duration
	}
	windows := []window{{"fast", sloFastWindow}, {"slow", sloSlowWindow}}

	build := func(name string, target float64, pick func(errs, slow int64) int64) ObjectiveStatus {
		obj := ObjectiveStatus{Name: name, Target: target, Burning: true}
		for _, w := range windows {
			total, errs, slow := s.window(nowIdx, w.d)
			bad := pick(errs, slow)
			ratio, rate := burn(bad, total, target)
			obj.Windows = append(obj.Windows, WindowBurn{
				Window: w.name, Seconds: w.d.Seconds(),
				Total: total, Bad: bad, BadRatio: ratio, BurnRate: rate,
			})
			if rate < sloBurnThreshold {
				obj.Burning = false
			}
		}
		return obj
	}

	st := SLOStatus{Objectives: []ObjectiveStatus{
		build("availability", s.cfg.AvailabilityTarget, func(errs, _ int64) int64 { return errs }),
		build("latency", s.cfg.LatencyTarget, func(_, slow int64) int64 { return slow }),
	}}
	for _, o := range st.Objectives {
		if o.Burning {
			st.Degraded = true
		}
	}
	return st
}

// Degraded reports whether any objective burns faster than the burn
// threshold in both windows — the multiwindow condition that
// filters out brief blips (fast window only) and long-recovered
// incidents (slow window only).
func (s *SLO) Degraded() bool {
	return s.Snapshot().Degraded
}

// Register exposes the engine as lusail_slo_* families, evaluated at
// scrape time.
func (s *SLO) Register(r *Registry) {
	r.RegisterCollector(func() []Family {
		st := s.Snapshot()
		var targets, burns, totals, bads []Sample
		for _, o := range st.Objectives {
			targets = append(targets, Sample{
				Labels: []Label{{Name: "slo", Value: o.Name}}, Value: o.Target})
			for _, w := range o.Windows {
				labels := []Label{{Name: "slo", Value: o.Name}, {Name: "window", Value: w.Window}}
				burns = append(burns, Sample{Labels: labels, Value: w.BurnRate})
				totals = append(totals, Sample{Labels: labels, Value: float64(w.Total)})
				bads = append(bads, Sample{Labels: labels, Value: float64(w.Bad)})
			}
		}
		degraded := 0.0
		if st.Degraded {
			degraded = 1
		}
		return []Family{
			{Name: "lusail_slo_objective_target", Help: "Configured objective target ratio.",
				Kind: "gauge", Samples: targets},
			{Name: "lusail_slo_burn_rate", Help: "Error-budget burn rate per objective and window.",
				Kind: "gauge", Samples: burns},
			{Name: "lusail_slo_window_queries", Help: "Queries observed in the window.",
				Kind: "gauge", Samples: totals},
			{Name: "lusail_slo_window_bad_queries", Help: "Objective-violating queries in the window.",
				Kind: "gauge", Samples: bads},
			{Name: "lusail_slo_degraded", Help: "1 when any objective burns past the threshold in both windows.",
				Kind: "gauge", Samples: []Sample{{Value: degraded}}},
		}
	})
}

// Handler serves the JSON snapshot (the /debug/slo route).
func (s *SLO) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Snapshot())
	})
}
