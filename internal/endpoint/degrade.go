package endpoint

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"lusail/internal/sparql"
)

// DegradePolicy selects how a query execution responds to an endpoint
// whose retries are exhausted (or whose breaker is open), and to the
// query budget expiring mid-phase.
type DegradePolicy int

const (
	// DegradeFail is the historical behavior: the first terminal
	// endpoint error fails the whole query.
	DegradeFail DegradePolicy = iota
	// DegradeSkipEndpoint drops a failing endpoint's contribution and
	// keeps executing, as long as every required subquery still has at
	// least one live source; losing the last source (or the query
	// budget) is still an error.
	DegradeSkipEndpoint
	// DegradeBestEffort never fails on endpoint loss or budget expiry:
	// it returns whatever is derivable from the surviving endpoints,
	// annotated with a Completeness report.
	DegradeBestEffort
)

// String names the policy for flags, logs, and reports.
func (p DegradePolicy) String() string {
	switch p {
	case DegradeFail:
		return "fail"
	case DegradeSkipEndpoint:
		return "skip-endpoint"
	case DegradeBestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseDegradePolicy parses a policy name as rendered by String.
func ParseDegradePolicy(s string) (DegradePolicy, error) {
	switch s {
	case "fail", "":
		return DegradeFail, nil
	case "skip-endpoint", "skip":
		return DegradeSkipEndpoint, nil
	case "best-effort", "besteffort":
		return DegradeBestEffort, nil
	default:
		return DegradeFail, fmt.Errorf("unknown degradation policy %q (fail | skip-endpoint | best-effort)", s)
	}
}

// Degrade is the per-query degraded-execution state. The query passes
// it explicitly to every phase that dispatches remote work, so
// concurrent executions each record their own drops.
// All methods are nil-safe: a nil *Degrade behaves as DegradeFail with
// no budget.
type Degrade struct {
	policy   DegradePolicy
	deadline time.Time // zero = no query budget

	mu      sync.Mutex
	dropped []sparql.Dropped
	seen    map[string]bool
}

// NewDegrade builds degradation state for one query execution.
// deadline is the query's wall-clock budget expiry (zero for none).
func NewDegrade(policy DegradePolicy, deadline time.Time) *Degrade {
	return &Degrade{policy: policy, deadline: deadline, seen: map[string]bool{}}
}

// Policy reports the configured policy (DegradeFail for nil).
func (d *Degrade) Policy() DegradePolicy {
	if d == nil {
		return DegradeFail
	}
	return d.policy
}

// Active reports whether endpoint failures may be degraded around
// rather than failing the query.
func (d *Degrade) Active() bool {
	return d != nil && d.policy != DegradeFail
}

// BudgetExpired reports whether the query's wall-clock budget has
// passed (false with no budget configured).
func (d *Degrade) BudgetExpired() bool {
	return d != nil && !d.deadline.IsZero() && !time.Now().Before(d.deadline)
}

// Absorb reports whether err may be converted into a dropped
// contribution under the policy instead of failing the query. The
// caller's own cancellation is never absorbed, and a deadline expiry
// is only absorbed when it is the query budget firing under
// BestEffort — a caller-imposed deadline still fails the query.
func (d *Degrade) Absorb(err error) bool {
	if !d.Active() || err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	if bareDeadline(err) &&
		!(d.policy == DegradeBestEffort && d.BudgetExpired()) {
		return false
	}
	return true
}

// bareDeadline distinguishes a context deadline (the caller or the
// query budget gave up) from a Client's per-attempt timeout, which
// wraps DeadlineExceeded in a TransientError and is an endpoint fault
// like any other.
func bareDeadline(err error) bool {
	if !errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var te *TransientError
	return !errors.As(err, &te)
}

// Drop records one dropped contribution. Duplicate
// (endpoint, subquery, phase) triples collapse into the first record,
// so retried blocks do not flood the report. Nil-safe no-op.
func (d *Degrade) Drop(endpoint, subquery, phase string, err error) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	key := endpoint + "\x00" + subquery + "\x00" + phase
	if d.seen[key] {
		return
	}
	d.seen[key] = true
	d.dropped = append(d.dropped, sparql.Dropped{
		Endpoint: endpoint,
		Subquery: subquery,
		Phase:    phase,
		Reason:   d.reason(err),
	})
}

// DropRecord builds (without recording) the entry Drop would record,
// for call sites that attach drops to a shared relation first and let
// every consumer Merge them. Nil-safe.
func (d *Degrade) DropRecord(endpoint, subquery, phase string, err error) sparql.Dropped {
	return sparql.Dropped{Endpoint: endpoint, Subquery: subquery, Phase: phase, Reason: d.reason(err)}
}

// Merge applies drops computed elsewhere (e.g. stamped on a shared
// subquery relation by the batch cache's computing query) to this
// query's state, preserving dedup semantics. Nil-safe no-op.
func (d *Degrade) Merge(drops []sparql.Dropped) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, dr := range drops {
		key := dr.Endpoint + "\x00" + dr.Subquery + "\x00" + dr.Phase
		if d.seen[key] {
			continue
		}
		d.seen[key] = true
		d.dropped = append(d.dropped, dr)
	}
}

// reason classifies err into a short report string. Called with mu
// held only for the budget check; err classification is pure.
func (d *Degrade) reason(err error) string {
	switch {
	case err == nil:
		return "dropped"
	case errors.Is(err, ErrCircuitOpen):
		return "circuit breaker open"
	case bareDeadline(err) && d.BudgetExpired():
		return "query budget exceeded"
	case bareDeadline(err):
		return "deadline exceeded"
	}
	var he *HTTPError
	if errors.As(err, &he) {
		return fmt.Sprintf("HTTP %d", he.Status)
	}
	msg := err.Error()
	if len(msg) > 160 {
		msg = msg[:160] + "…"
	}
	return msg
}

// DropCount reports the number of recorded drops (0 for nil).
func (d *Degrade) DropCount() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.dropped)
}

// Drops snapshots the recorded drops in record order (nil for none).
func (d *Degrade) Drops() []sparql.Dropped {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]sparql.Dropped(nil), d.dropped...)
}

// Completeness builds the result annotation: Complete when nothing was
// dropped. Returns nil for a nil receiver (no degradation configured).
func (d *Degrade) Completeness() *sparql.Completeness {
	if d == nil {
		return nil
	}
	drops := d.Drops()
	return &sparql.Completeness{Complete: len(drops) == 0, Dropped: drops}
}
