package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"lusail/internal/endpoint"
	"lusail/internal/sparql"
	"lusail/internal/testfed"
	"lusail/internal/trace"
)

// recordingLog is a QueryLogger that keeps every lifecycle event.
type recordingLog struct {
	mu       sync.Mutex
	started  []string
	finished []finishedEvent
}

type finishedEvent struct {
	id   string
	rows int
	err  error
}

func (r *recordingLog) QueryStarted(query string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := fmt.Sprintf("q%d", len(r.started))
	r.started = append(r.started, id)
	return id
}

func (r *recordingLog) QueryFinished(id, query string, m Metrics, rows int, err error, root *trace.Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished = append(r.finished, finishedEvent{id: id, rows: rows, err: err})
}

// TestQueryLogLifecycleEveryEntryPoint: whichever way a query enters
// the engine and however it ends, the query log sees exactly one
// started/finished pair, with the delivered row count (-1 when the
// query failed) and the error the caller got. Every way in runs the one
// lifecycle; the subtests keep the names of the call shapes the engine
// once had a method for each.
func TestQueryLogLifecycleEveryEntryPoint(t *testing.T) {
	ctx := context.Background()
	errSink := errors.New("client went away")
	discard := func([]sparql.Var, []sparql.Binding) error { return nil }

	type outcome struct {
		rows int
		err  error
	}
	rowsOf := func(res *sparql.Results, err error) outcome {
		if err != nil {
			return outcome{-1, err}
		}
		return outcome{res.Len(), nil}
	}
	entryPoints := []struct {
		name  string
		sinks bool // the caller supplies the sink
		run   func(l *Lusail, q string, sink StreamSink) outcome
	}{
		{"Execute", false, func(l *Lusail, q string, _ StreamSink) outcome {
			return rowsOf(l.Execute(ctx, q))
		}},
		// Collected, read for the call's own Metrics.
		{"ExecuteMetrics", false, func(l *Lusail, q string, _ StreamSink) outcome {
			res, _, _, err := l.ExecuteStreamTraced(ctx, q, nil)
			return rowsOf(res, err)
		}},
		// Collected and traced: the plan that ran, with its analysis.
		{"ExecuteTraced", false, func(l *Lusail, q string, _ StreamSink) outcome {
			an, err := l.ExplainAnalyze(ctx, q)
			if err != nil {
				return outcome{-1, err}
			}
			return outcome{an.Rows, nil}
		}},
		{"ExecuteStream", true, func(l *Lusail, q string, sink StreamSink) outcome {
			res, _, _, err := l.ExecuteStreamTraced(ctx, q, sink)
			return rowsOf(res, err)
		}},
		// Streamed into a trace joined to a remote parent, as served.
		{"ExecuteStreamTraced", true, func(l *Lusail, q string, sink StreamSink) outcome {
			parent := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID(), Sampled: true}
			res, _, _, err := l.ExecuteStreamTraced(trace.WithRemoteParent(ctx, parent), q, sink)
			return rowsOf(res, err)
		}},
		// One of a workload's concurrent calls.
		{"ExecuteBatch", false, func(l *Lusail, q string, _ StreamSink) outcome {
			br := runConcurrently(l, []string{q})[0]
			return rowsOf(br.res, br.err)
		}},
	}
	advisors := `SELECT ?s ?p WHERE { ?s <http://ex/advisor> ?p }`
	scenarios := []struct {
		name     string
		query    string
		down     bool // one endpoint is hard-down
		sink     StreamSink
		wantRows int
		wantErr  bool
	}{
		{name: "ok", query: advisors, wantRows: 4},
		{name: "blocking-modifier", query: `SELECT DISTINCT ?s WHERE { ?s <http://ex/advisor> ?p }`, wantRows: 3},
		{name: "parse-error", query: "SELEKT nothing", wantRows: -1, wantErr: true},
		{name: "endpoint-error", query: advisors, down: true, wantRows: -1, wantErr: true},
		{name: "sink-error", query: advisors, wantRows: -1, wantErr: true,
			sink: func([]sparql.Var, []sparql.Binding) error { return errSink }},
		{name: "limit-early-stop", query: advisors + ` LIMIT 2`, wantRows: 2},
	}
	for _, ep := range entryPoints {
		for _, sc := range scenarios {
			if sc.sink != nil && !ep.sinks {
				continue // the entry point's own collector cannot fail
			}
			t.Run(ep.name+"/"+sc.name, func(t *testing.T) {
				ep1, ep2 := testfed.Universities()
				eps := []endpoint.Endpoint{ep1, ep2}
				if sc.down {
					eps[1] = endpoint.NewFaulty(ep2, endpoint.FaultConfig{Down: true})
				}
				log := &recordingLog{}
				l := New(eps, Config{QueryLog: log})
				sink := sc.sink
				if sink == nil {
					sink = discard
				}
				got := ep.run(l, sc.query, sink)

				if (got.err != nil) != sc.wantErr {
					t.Fatalf("err = %v, want an error: %v", got.err, sc.wantErr)
				}
				if sc.sink != nil && !errors.Is(got.err, errSink) {
					t.Errorf("err = %v, want the sink's own error", got.err)
				}
				if !sc.wantErr && got.rows != sc.wantRows {
					t.Errorf("result has %d rows, want %d", got.rows, sc.wantRows)
				}
				if len(log.started) != 1 || len(log.finished) != 1 {
					t.Fatalf("query log saw %d started / %d finished events, want 1 / 1",
						len(log.started), len(log.finished))
				}
				fin := log.finished[0]
				if fin.id != log.started[0] {
					t.Errorf("finished id %q does not pair with started id %q", fin.id, log.started[0])
				}
				if fin.rows != sc.wantRows {
					t.Errorf("logged rows = %d, want %d", fin.rows, sc.wantRows)
				}
				if fin.err != got.err {
					t.Errorf("logged err = %v, the caller got %v", fin.err, got.err)
				}
			})
		}
	}
}
