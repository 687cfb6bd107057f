package endpoint

import (
	"context"
	"errors"
	"fmt"
)

// Error classification for the fault-tolerance layer. Remote requests
// fail in two fundamentally different ways: transient faults (a lost
// packet, a 5xx from an overloaded server, a timed-out request) that a
// retry can heal, and permanent faults (a malformed query, a protocol
// violation, an evaluation error) that will fail identically on every
// attempt. A Client's retry loop retries only the former.

// TransientError marks an error as retryable. Use Transient to wrap.
type TransientError struct {
	Err error
}

// Error implements the error interface.
func (e *TransientError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err so that Retryable reports true for it. A nil err
// stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// ParseError marks a request that failed before evaluation because the
// query text itself is invalid; the SPARQL protocol reports it as HTTP
// 400 and no retry can fix it.
type ParseError struct {
	Err error
}

// Error implements the error interface.
func (e *ParseError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause.
func (e *ParseError) Unwrap() error { return e.Err }

// HTTPError is a non-200 response from a remote SPARQL endpoint. 5xx
// statuses are server-side and retryable; 4xx are the client's fault
// and permanent.
type HTTPError struct {
	Endpoint string
	Status   int
	Body     string
}

// Error implements the error interface.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("endpoint %s: HTTP %d: %s", e.Endpoint, e.Status, e.Body)
}

// ErrCircuitOpen is returned (wrapped) by a Client whose circuit
// breaker is open: the request was rejected locally without touching
// the endpoint.
var ErrCircuitOpen = errors.New("circuit breaker open")

// Retryable reports whether a retry has any chance of succeeding:
// HTTP 5xx and anything explicitly marked Transient are retryable
// (a Client marks its per-attempt timeouts Transient);
// context errors are not — a bare Canceled or DeadlineExceeded means
// the CALLER gave up, and retrying past the caller's deadline is
// useless — and neither are parse errors, HTTP 4xx, or unclassified
// errors (fail-safe: only retry what is known to be transient).
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, ErrCircuitOpen) {
		return false
	}
	var pe *ParseError
	if errors.As(err, &pe) {
		return false
	}
	var te *TransientError
	if errors.As(err, &te) {
		return true
	}
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Status >= 500
	}
	return false
}
