package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request's outcome.
type sample struct {
	query    int // index into workload.queries
	total    time.Duration
	firstRow time.Duration
	err      error
}

// closedLoop runs do(0), do(1), ... from `clients` goroutines, each
// sending its next request only after its previous one completed,
// until the deadline passes or limit requests were started (limit 0 =
// no limit). It returns the samples in completion order and the wall
// time from the first send to the last completion.
func closedLoop(clients int, deadline time.Time, limit int, do func(i int) sample) ([]sample, time.Duration) {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				s := do(i)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// bindingsMarker opens the row array of a SPARQL-JSON document; the
// first '{' after it is the first result row.
var bindingsMarker = []byte(`"bindings":[`)

// firstRowReader stamps the moment the first result row has been read
// off the stream: the first '{' after `"bindings":[`. An empty answer
// has no row; its stamp is the end of the body.
type firstRowReader struct {
	r     io.Reader
	head  []byte // bytes seen so far, kept only until the row is found
	found bool
	at    time.Time
}

func (f *firstRowReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if !f.found && n > 0 {
		f.head = append(f.head, p[:n]...)
		if i := bytes.Index(f.head, bindingsMarker); i >= 0 &&
			bytes.IndexByte(f.head[i+len(bindingsMarker):], '{') >= 0 {
			f.found, f.at, f.head = true, time.Now(), nil
		}
	}
	if err == io.EOF && !f.found {
		f.found, f.at = true, time.Now()
	}
	return n, err
}

// servedRequest sends one query to the child's /sparql the way a
// SPARQL client would (form POST, JSON results, chunked stream), times
// it, and only then checks the body against the oracle.
func servedRequest(client *http.Client, base string, query int, text string, exp expected) sample {
	s := sample{query: query}
	form := url.Values{"query": {text}}.Encode()
	req, err := http.NewRequest(http.MethodPost, base+"/sparql", strings.NewReader(form))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Accept", "application/sparql-results+json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	fr := &firstRowReader{r: resp.Body}
	body, err := io.ReadAll(fr)
	s.total = time.Since(start)
	s.firstRow = fr.at.Sub(start)
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	case resp.Trailer.Get("X-Lusail-Error") != "":
		s.err = fmt.Errorf("mid-stream error: %s", resp.Trailer.Get("X-Lusail-Error"))
	case resp.Trailer.Get("X-Lusail-Partial-Results") != "":
		s.err = fmt.Errorf("partial results")
	default:
		s.err = exp.matches(bytes.NewReader(body))
	}
	return s
}

// latencies returns the successful samples' total and first-row times
// in milliseconds, each sorted.
func latencies(samples []sample) (total, firstRow []float64) {
	for _, s := range samples {
		if s.err == nil {
			total = append(total, float64(s.total)/float64(time.Millisecond))
			firstRow = append(firstRow, float64(s.firstRow)/float64(time.Millisecond))
		}
	}
	sort.Float64s(total)
	sort.Float64s(firstRow)
	return total, firstRow
}

// failed collects the failed samples of one or more sections.
func failed(sections ...[]sample) []sample {
	var out []sample
	for _, sec := range sections {
		for _, s := range sec {
			if s.err != nil {
				out = append(out, s)
			}
		}
	}
	return out
}
