package endpoint

import (
	"context"
	"sync/atomic"
)

// FaultCounters accumulates the fault-recovery events (retries,
// breaker rejections, hedges) of one logical operation, e.g. one
// federated query execution. The per-endpoint counters in Stats are
// shared by every concurrent caller, so a pre/post delta over
// TotalStats double-counts under concurrent execution; counters
// attached to the operation's context instead see exactly the events
// of requests issued under that context. The zero value is ready to
// use.
type FaultCounters struct {
	retries      atomic.Int64
	breakerOpens atomic.Int64
	hedges       atomic.Int64
}

// Retries reports the retry attempts recorded.
func (c *FaultCounters) Retries() int64 { return c.retries.Load() }

// BreakerOpens reports the requests an open breaker rejected.
func (c *FaultCounters) BreakerOpens() int64 { return c.breakerOpens.Load() }

// Hedges reports the backup attempts launched by hedging clients.
func (c *FaultCounters) Hedges() int64 { return c.hedges.Load() }

type faultCountersKey struct{}

// WithFaultCounters attaches fc to ctx: every Client a request under
// ctx flows through records its fault-recovery events in fc, in
// addition to its own per-endpoint totals.
func WithFaultCounters(ctx context.Context, fc *FaultCounters) context.Context {
	return context.WithValue(ctx, faultCountersKey{}, fc)
}

// FaultCountersFrom returns the counters attached to ctx, or nil.
func FaultCountersFrom(ctx context.Context) *FaultCounters {
	fc, _ := ctx.Value(faultCountersKey{}).(*FaultCounters)
	return fc
}
