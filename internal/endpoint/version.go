package endpoint

import (
	"context"
	"errors"

	"lusail/internal/rdf"
)

// DataVersioner is implemented by endpoints that expose a monotonic
// data version: a counter that bumps every time the endpoint's graph
// mutates. The federator's cache-coherence layer fences cached
// subquery results and planning decisions against it — a cached entry
// stamped with an older version than the endpoint's current one was
// computed against data that no longer exists and must not be served.
//
// The probe must be cheap relative to a query: local endpoints answer
// from an atomic counter, HTTP endpoints from a HEAD request. (The
// server also stamps the version on every query response as an
// ETag-style header; the federator reads it from probes only.)
type DataVersioner interface {
	// DataVersion reports the endpoint's current data version. The
	// error is non-nil when the endpoint could not be reached; a
	// reachable endpoint that tracks no versions is not a
	// DataVersioner at all.
	DataVersion(ctx context.Context) (uint64, error)
}

// ChurnTarget is implemented by endpoints whose backing data a churn
// injector can mutate in place (endpoint.Local over store.Store). A
// mutation is an atomic delete-then-insert batch; every applied batch
// bumps the endpoint's data version exactly once, even when it both
// deletes and inserts.
type ChurnTarget interface {
	ApplyChurn(insert, remove rdf.Graph)
}

// DataVersionOf probes ep's current data version, stepping through
// Clients and fault injectors to the endpoint beneath (injected faults
// deliberately do not apply to probes, since fencing correctness must
// not depend on the fault schedule). ok is false when no endpoint in
// the chain tracks versions — such an endpoint cannot be fenced and the
// coherence layer treats its cached state as unverifiable.
func DataVersionOf(ctx context.Context, ep Endpoint) (v uint64, ok bool, err error) {
	cur := ep
	for cur != nil {
		if dv, isDV := cur.(DataVersioner); isDV {
			v, err = dv.DataVersion(ctx)
			if errors.Is(err, ErrNoDataVersion) {
				// Reachable but version-less (an HTTP server not run by
				// lusail): unverifiable, not a probe failure.
				return 0, false, nil
			}
			return v, err == nil, err
		}
		cur = unwrap(cur)
	}
	return 0, false, nil
}

// churnTargetOf steps through Clients and fault injectors to the first
// endpoint that accepts churn mutations; nil when none does.
func churnTargetOf(ep Endpoint) ChurnTarget {
	cur := ep
	for cur != nil {
		if ct, isCT := cur.(ChurnTarget); isCT {
			return ct
		}
		cur = unwrap(cur)
	}
	return nil
}

// unwrap steps through one Client or Faulty, or returns nil at the
// bottom.
func unwrap(ep Endpoint) Endpoint {
	switch e := ep.(type) {
	case *Client:
		return e.inner
	case *Faulty:
		return e.Inner
	}
	return nil
}
