package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"lusail/internal/rdf"
)

// config is what one invocation fixes for every run it makes.
type config struct {
	serverBin string
	clients   int
	procs     int // GOMAXPROCS of harness and child
	seconds   float64
}

// warmNonce offsets warm-up nonces away from the timed requests'.
const warmNonce = 1 << 40

// served is a warmed system under test: the endpoint servers, the
// lusail-server child federating them, and the request generator.
type served struct {
	env    *environment
	child  *child
	reqs   *requests
	client *http.Client
	seed   int64
}

// setUp builds everything a user would wait for before the first
// timed request: data generation, endpoint servers, the oracle's
// answers, server start, /readyz, statistics harvest, and one warm-up
// pass over the distinct queries (checked like any other request).
func setUp(ctx context.Context, cfg config, w *workload, seed int64) (*served, error) {
	reqs, err := newRequests(w, seed)
	if err != nil {
		return nil, err
	}
	env, err := newEnvironment(w, w.scale)
	if err != nil {
		return nil, err
	}
	child, err := startServer(ctx, cfg.serverBin, env.urls(), cfg.procs)
	if err != nil {
		env.close()
		return nil, err
	}
	s := &served{env: env, child: child, reqs: reqs, seed: seed,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.clients}}}
	for q := range w.queries {
		smp := servedRequest(s.client, child.base, q, reqs.textOf(q, warmNonce+int64(q)), env.answers[q])
		if smp.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", w.queries[q].name, smp.err)
		}
	}
	return s, nil
}

func (s *served) close() {
	s.client.CloseIdleConnections()
	s.child.stop()
	s.env.close()
}

// timedSection is what the served closed loop measured.
type timedSection struct {
	samples []sample
	wall    time.Duration
	wire    wire               // endpoint-server counters over the section
	cpu     float64            // child user+sys seconds over the section
	peakRSS float64            // child VmHWM at the end, MiB
	metrics map[string]float64 // child /metrics, end minus start
}

// run drives /sparql in a closed loop for d, with the workload's churn
// applied beside it, and reads every outside-the-program counter
// before and after.
func (s *served) run(clients int, d time.Duration) (*timedSection, error) {
	before, err := s.child.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := s.child.cpuSeconds()
	if err != nil {
		return nil, err
	}
	wire0 := s.env.wire()

	stopChurn := startChurn(s.env, s.seed)
	samples, wall := closedLoop(clients, time.Now().Add(d), 0, func(i int) sample {
		q, text := s.reqs.at(i)
		return servedRequest(s.client, s.child.base, q, text, s.env.answers[q])
	})
	stopChurn()

	t := &timedSection{samples: samples, wall: wall, wire: s.env.wire().sub(wire0)}
	cpu1, err := s.child.cpuSeconds()
	if err != nil {
		return nil, err
	}
	t.cpu = cpu1 - cpu0
	if t.peakRSS, err = s.child.peakRSSMiB(); err != nil {
		return nil, err
	}
	after, err := s.child.scrape()
	if err != nil {
		return nil, err
	}
	t.metrics = map[string]float64{}
	for series, v := range after {
		t.metrics[series] = v - before[series]
	}
	return t, nil
}

// churnPredicate is touched by no query, so answers stay checkable
// while data versions move.
const churnPredicate = "urn:bench:churn"

// churnBatch is the triples per batch.
const churnBatch = 8

// churner deals the seeded churn batches: round-robin over endpoints,
// each batch inserting churnBatch triples on churnPredicate and
// removing the ones the same endpoint got a round earlier.
type churner struct {
	rng  *rand.Rand
	last []rdf.Graph
	n    int
}

func newChurner(seed int64, endpoints int) *churner {
	return &churner{rng: rand.New(rand.NewSource(seed)), last: make([]rdf.Graph, endpoints)}
}

func (c *churner) next() (endpoint int, insert, remove rdf.Graph) {
	endpoint = c.n % len(c.last)
	c.n++
	pred := rdf.IRI(churnPredicate)
	for j := 0; j < churnBatch; j++ {
		insert.Add(rdf.IRI(fmt.Sprintf("urn:bench:churn:s%d", c.rng.Int63())), pred,
			rdf.IRI(fmt.Sprintf("urn:bench:churn:o%d", c.rng.Int63())))
	}
	remove, c.last[endpoint] = c.last[endpoint], insert
	return endpoint, insert, remove
}

// startChurn applies the workload's churn schedule to the endpoint
// servers' stores until the returned stop function is called; stop
// waits for the churn goroutine and removes what it left behind, so a
// later section starts from the same data. A workload without churn
// gets a no-op.
func startChurn(env *environment, seed int64) (stop func()) {
	if env.w.churnEvery <= 0 {
		return func() {}
	}
	ch := newChurner(seed, len(env.servers))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(env.w.churnEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				ep, ins, rem := ch.next()
				env.applyChurn(ep, ins, rem)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		for ep, g := range ch.last {
			env.applyChurn(ep, nil, g)
		}
	}
}
