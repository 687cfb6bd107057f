package endpoint

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lusail/internal/sparql"
)

func TestParseDegradePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want DegradePolicy
		err  bool
	}{
		{"fail", DegradeFail, false},
		{"", DegradeFail, false},
		{"skip-endpoint", DegradeSkipEndpoint, false},
		{"skip", DegradeSkipEndpoint, false},
		{"best-effort", DegradeBestEffort, false},
		{"besteffort", DegradeBestEffort, false},
		{"bogus", DegradeFail, true},
	}
	for _, c := range cases {
		got, err := ParseDegradePolicy(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseDegradePolicy(%q) = %v, %v", c.in, got, err)
		}
	}
	for _, p := range []DegradePolicy{DegradeFail, DegradeSkipEndpoint, DegradeBestEffort} {
		back, err := ParseDegradePolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round trip %v → %q → %v, %v", p, p.String(), back, err)
		}
	}
}

func TestDegradeAbsorbSemantics(t *testing.T) {
	transient := Transient(errors.New("boom"))
	attemptTimeout := Transient(fmt.Errorf("attempt timed out: %w", context.DeadlineExceeded))
	httpErr := &HTTPError{Endpoint: "ep", Status: 503}
	breaker := fmt.Errorf("endpoint ep: %w", ErrCircuitOpen)

	expired := NewDegrade(DegradeBestEffort, time.Now().Add(-time.Second))
	cases := []struct {
		name string
		d    *Degrade
		err  error
		want bool
	}{
		{"nil degrade", nil, transient, false},
		{"fail policy", NewDegrade(DegradeFail, time.Time{}), transient, false},
		{"skip transient", NewDegrade(DegradeSkipEndpoint, time.Time{}), transient, true},
		{"skip http", NewDegrade(DegradeSkipEndpoint, time.Time{}), httpErr, true},
		{"skip breaker", NewDegrade(DegradeSkipEndpoint, time.Time{}), breaker, true},
		{"nil error", NewDegrade(DegradeBestEffort, time.Time{}), nil, false},
		// The caller's own cancellation is never absorbed.
		{"canceled", NewDegrade(DegradeBestEffort, time.Time{}), context.Canceled, false},
		// A bare deadline (caller-imposed) is not an endpoint fault...
		{"skip bare deadline", NewDegrade(DegradeSkipEndpoint, time.Time{}), context.DeadlineExceeded, false},
		{"best-effort bare deadline, no budget", NewDegrade(DegradeBestEffort, time.Time{}), context.DeadlineExceeded, false},
		// ...unless it is the query budget firing under best-effort.
		{"best-effort expired budget", expired, context.DeadlineExceeded, true},
		// A client's per-attempt timeout wraps
		// DeadlineExceeded in a TransientError: an ordinary endpoint
		// fault, absorbable under skip.
		{"skip attempt timeout", NewDegrade(DegradeSkipEndpoint, time.Time{}), attemptTimeout, true},
	}
	for _, c := range cases {
		if got := c.d.Absorb(c.err); got != c.want {
			t.Errorf("%s: Absorb = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDegradeDropDedupAndMerge(t *testing.T) {
	d := NewDegrade(DegradeBestEffort, time.Time{})
	err := Transient(errors.New("connection refused"))
	d.Drop("ep1", "sq0", "phase2", err)
	d.Drop("ep1", "sq0", "phase2", err) // duplicate triple collapses
	d.Drop("ep1", "sq1", "phase2", err)
	if got := d.DropCount(); got != 2 {
		t.Fatalf("DropCount = %d, want 2 (dedup failed)", got)
	}
	// Merge preserves the same dedup key space.
	d.Merge([]sparql.Dropped{
		d.DropRecord("ep1", "sq0", "phase2", err), // already seen
		d.DropRecord("ep2", "", "source-selection", fmt.Errorf("endpoint ep2: %w", ErrCircuitOpen)),
	})
	if got := d.DropCount(); got != 3 {
		t.Fatalf("DropCount after merge = %d, want 3", got)
	}
	c := d.Completeness()
	if c == nil || c.Complete {
		t.Fatalf("Completeness = %+v, want partial", c)
	}
	if s := c.String(); !strings.Contains(s, "ep2@source-selection: circuit breaker open") {
		t.Errorf("completeness string missing breaker drop: %q", s)
	}
	eps := c.DroppedEndpoints()
	if len(eps) != 2 || eps[0] != "ep1" || eps[1] != "ep2" {
		t.Errorf("DroppedEndpoints = %v, want [ep1 ep2]", eps)
	}
}

func TestDegradeReasonClassification(t *testing.T) {
	noBudget := NewDegrade(DegradeBestEffort, time.Time{})
	expired := NewDegrade(DegradeBestEffort, time.Now().Add(-time.Second))
	cases := []struct {
		d    *Degrade
		err  error
		want string
	}{
		{noBudget, fmt.Errorf("x: %w", ErrCircuitOpen), "circuit breaker open"},
		{expired, context.DeadlineExceeded, "query budget exceeded"},
		{noBudget, context.DeadlineExceeded, "deadline exceeded"},
		{noBudget, &HTTPError{Endpoint: "e", Status: 414}, "HTTP 414"},
		{noBudget, errors.New("weird"), "weird"},
		{noBudget, errors.New(strings.Repeat("x", 200)), strings.Repeat("x", 160) + "…"},
	}
	for _, c := range cases {
		if got := c.d.reason(c.err); got != c.want {
			t.Errorf("reason(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestDegradeNilSafety(t *testing.T) {
	var d *Degrade
	if d.Active() || d.BudgetExpired() || d.Absorb(errors.New("x")) {
		t.Error("nil Degrade must behave as inert DegradeFail")
	}
	d.Drop("ep", "", "phase1", nil) // must not panic
	d.Merge([]sparql.Dropped{{Endpoint: "ep"}})
	if d.DropCount() != 0 || d.Drops() != nil || d.Completeness() != nil {
		t.Error("nil Degrade must report nothing")
	}
}

func TestFaultyDownMode(t *testing.T) {
	f := NewFaulty(NewLocal("ep", testStore()), FaultConfig{Down: true})
	for i := 0; i < 3; i++ {
		_, err := f.Query(context.Background(), `ASK { ?s ?p ?o }`)
		if err == nil {
			t.Fatal("down endpoint answered")
		}
		if !Retryable(err) {
			t.Errorf("down error must be transient (retryable): %v", err)
		}
	}
	if f.Completed() != 0 {
		t.Error("down endpoint delegated a request")
	}
}

func TestFaultyFlapMode(t *testing.T) {
	f := NewFaulty(NewLocal("ep", testStore()), FaultConfig{FlapDownFor: 2, FlapUpFor: 3})
	var pattern []bool
	for i := 0; i < 10; i++ {
		_, err := f.Query(context.Background(), `ASK { ?s ?p ?o }`)
		pattern = append(pattern, err == nil)
	}
	want := []bool{false, false, true, true, true, false, false, true, true, true}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("flap pattern = %v, want %v", pattern, want)
		}
	}
}

func TestFaultyOversizeMode(t *testing.T) {
	f := NewFaulty(NewLocal("ep", testStore()), FaultConfig{MaxRequestBytes: 64})
	if _, err := f.Query(context.Background(), `ASK { ?s ?p ?o }`); err != nil {
		t.Fatalf("small request rejected: %v", err)
	}
	big := "ASK { ?s ?p ?o } #" + strings.Repeat("x", 100)
	_, err := f.Query(context.Background(), big)
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != 413 {
		t.Fatalf("oversized request error = %v, want HTTP 413", err)
	}
	if Retryable(err) {
		t.Error("413 must not be retryable: only re-chunking can succeed")
	}

	// Custom status models GET URL-length caps.
	f414 := NewFaulty(NewLocal("ep", testStore()), FaultConfig{MaxRequestBytes: 64, OversizeStatus: 414})
	_, err = f414.Query(context.Background(), big)
	if !errors.As(err, &he) || he.Status != 414 {
		t.Fatalf("custom oversize status error = %v, want HTTP 414", err)
	}
}
