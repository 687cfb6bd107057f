package stats

import (
	"math"
	"sync"
)

// calibrator closes the estimation feedback loop: each observed
// (estimated, actual) subquery cardinality nudges a per-(endpoint,
// predicate) correction factor toward the observed ratio. Updates run
// in log space as an exponentially weighted moving average — a factor
// is a learned multiplicative bias, and log-space smoothing treats 4x
// over- and under-estimation symmetrically — and are clamped so one
// pathological observation cannot blow up future plans.
type calibrator struct {
	mu           sync.RWMutex
	logFactors   map[calKey]float64
	observations int64
}

type calKey struct{ ep, pred string }

// calibrationGain is the EWMA step in log space.
const calibrationGain = 0.25

// clampLog bounds each correction factor to [1/32, 32], in log space.
var clampLog = math.Log(32)

func newCalibrator() *calibrator {
	return &calibrator{logFactors: map[calKey]float64{}}
}

// observe distributes the residual ratio actual/estimated over every
// (endpoint, predicate) key the subquery touched. The +1 smoothing
// keeps empty results and zero estimates finite.
func (c *calibrator) observe(epNames, preds []string, est, actual float64) {
	if est < 0 || actual < 0 || (len(epNames) == 0 || len(preds) == 0) {
		return
	}
	step := calibrationGain * math.Log((actual+1)/(est+1))
	if step == 0 || math.IsNaN(step) || math.IsInf(step, 0) {
		c.mu.Lock()
		c.observations++
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observations++
	for _, ep := range epNames {
		for _, p := range preds {
			k := calKey{ep, p}
			lf := c.logFactors[k] + step
			if lf > clampLog {
				lf = clampLog
			} else if lf < -clampLog {
				lf = -clampLog
			}
			c.logFactors[k] = lf
		}
	}
}

func (c *calibrator) factor(ep, pred string) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	lf, ok := c.logFactors[calKey{ep, pred}]
	if !ok {
		return 1
	}
	return math.Exp(lf)
}

func (c *calibrator) stats() (keys int, observations int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.logFactors), c.observations
}
