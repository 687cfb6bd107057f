// Command bench is the served-path benchmark: it serves seeded
// federations from loopback SPARQL endpoints it owns, runs
// cmd/lusail-server over them with the flags a deployment would use,
// drives /sparql in a closed loop, checks every answer against a
// union-graph oracle, and prints every metric BENCHMARK.json declares.
// See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run (all = every workload in turn)")
		seed         = flag.Int64("seed", 1, "seed for request order, nonces and churn")
		seconds      = flag.Float64("seconds", 15, "length of each run's measured section")
		trace        = flag.String("trace", "both", "0 = end-to-end run, 1 = per-layer traced run, both = one after the other")
		clients      = flag.Int("clients", 2, "closed-loop client connections (at most nproc)")
		outDir       = flag.String("out", "", "directory for result.json and spans.jsonl (default: a new temp dir)")
		root         = flag.String("root", "..", "repository root, to build cmd/lusail-server from")
		serverBin    = flag.String("server", "", "prebuilt lusail-server binary (default: build one under -out)")
		aa           = flag.Int("aa", 0, "run the end-to-end suite as two interleaved sets of K runs and compare them")
	)
	flag.Parse()

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if *clients < 1 || *clients > nproc {
		fatalf("-clients %d: need 1..%d (nproc); more clients than cores measures the scheduler", *clients, nproc)
	}
	var selected []*workload
	if *workloadName == "all" {
		selected = workloads
	} else if w := workloadByName(*workloadName); w != nil {
		selected = []*workload{w}
	} else {
		fatalf("unknown workload %q", *workloadName)
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fatalf("-trace %q: want 0, 1 or both", *trace)
	}
	if *outDir == "" {
		dir, err := os.MkdirTemp("", "lusail-bench-")
		if err != nil {
			fatalf("%v", err)
		}
		*outDir = dir
	} else if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	cfg := config{serverBin: *serverBin, clients: *clients, procs: nproc, seconds: *seconds}
	if cfg.serverBin == "" {
		bin, err := buildServer(*root, *outDir)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.serverBin = bin
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *aa > 0 {
		if err := runAA(ctx, cfg, selected, *seed, *aa); err != nil {
			fatalf("%v", err)
		}
		return
	}

	rep := newReport(*root, cfg, *seed)
	ok := true
	for _, w := range selected {
		if *trace != "1" {
			res, detail, err := runEndToEnd(ctx, cfg, w, *seed)
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			rep.add(w.name, "end_to_end", res, detail)
			printResult(w.name, endToEnd, res)
			ok = ok && res.Correct
		}
		if *trace != "0" {
			res, detail, spans, err := runPerLayer(ctx, cfg, w, *seed)
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			rep.add(w.name, "per_layer", res, detail)
			rep.spans = append(rep.spans, spans...)
			printResult(w.name, perLayer, res)
			ok = ok && res.Correct
		}
	}
	if err := rep.write(*outDir); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", filepath.Join(*outDir, "result.json"))
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// printResult prints a run's metrics by name with unit and bound, then
// the run's JSON object as the last line.
func printResult(workload string, specs []metricSpec, res result) {
	fmt.Printf("%s\n", workload)
	for _, s := range specs {
		m := res.Metrics[s.name]
		bound := ""
		if s.bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", 100*s.bound)
		}
		fmt.Printf("  %-38s %14.4f %-6s %s is better%s\n", s.name, m.Value, m.Unit, s.better, bound)
	}
	line, _ := json.Marshal(res) // a map of numbers and strings cannot fail to marshal
	fmt.Printf("%s\n", line)
}

// setupRepeats is how many times an end-to-end run sets the system up;
// it reports the median, because one set-up is a few seconds of
// process start and cold caches and varies more than any other metric.
const setupRepeats = 3

// runDetail is what result.json keeps beyond the metric values.
type runDetail struct {
	Requests int            `json:"requests"`
	Samples  map[string]int `json:"samples"` // metric -> samples behind it
	WallS    float64        `json:"wall_s"`
	// PerQuery is the median latency of each distinct query, for
	// reading a workload's mix; no metric is derived from it.
	PerQuery map[string]queryStat `json:"per_query,omitempty"`
	Failures []string             `json:"failures,omitempty"`
}

type queryStat struct {
	Samples int     `json:"samples"`
	P50MS   float64 `json:"p50_ms"`
}

// perQuery groups successful samples by distinct query.
func perQuery(w *workload, samples []sample) map[string]queryStat {
	byQuery := map[int][]float64{}
	for _, s := range samples {
		if s.err == nil {
			byQuery[s.query] = append(byQuery[s.query], float64(s.total)/float64(time.Millisecond))
		}
	}
	out := map[string]queryStat{}
	for q, ms := range byQuery {
		out[w.queries[q].name] = queryStat{Samples: len(ms), P50MS: median(ms)}
	}
	return out
}

// runEndToEnd is the timed run: harness tracing off, every metric a
// user of the served system would see.
func runEndToEnd(ctx context.Context, cfg config, w *workload, seed int64) (result, runDetail, error) {
	var s *served
	setups := make([]float64, setupRepeats)
	for k := range setups {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = setUp(ctx, cfg, w, seed); err != nil {
			return result{}, runDetail{}, err
		}
		setups[k] = time.Since(start).Seconds()
	}
	defer s.close()

	t, err := s.run(cfg.clients, time.Duration(cfg.seconds*float64(time.Second)))
	if err != nil {
		return result{}, runDetail{}, err
	}
	total, firstRow := latencies(t.samples)
	failures := failed(t.samples)
	values := endToEndValues(t, total, firstRow, setups)
	detail := runDetail{Requests: len(t.samples), WallS: t.wall.Seconds(), Samples: map[string]int{
		"query_p50_ms": len(total), "query_p95_ms": len(total), "first_row_p50_ms": len(firstRow),
		"setup_s": len(setups),
	}}
	detail.PerQuery = perQuery(w, t.samples)
	detail.Failures = describe(w, failures)
	if w.nonce {
		if hits := sumSeries(t.metrics, "lusail_cache_hits_total", `cache="subquery"`); hits > 0 {
			detail.Failures = append(detail.Failures,
				fmt.Sprintf("%.0f subquery-cache hits on a cache-bypassing workload", hits))
		}
	}
	return finish(endToEnd, values, len(t.samples), len(failures), detail)
}

// endToEndValues computes the end-to-end metrics of one timed section
// from its sorted latencies (ms) and the run's set-up times (s).
func endToEndValues(t *timedSection, total, firstRow, setups []float64) map[string]float64 {
	attempted := float64(len(t.samples))
	return map[string]float64{
		"query_p50_ms":                percentile(total, 50),
		"query_p95_ms":                percentile(total, 95),
		"first_row_p50_ms":            percentile(firstRow, 50),
		"throughput_qps":              float64(len(total)) / t.wall.Seconds(),
		"endpoint_requests_per_query": float64(t.wire.queries) / attempted,
		"endpoint_kb_per_query":       float64(t.wire.bytes) / 1024 / attempted,
		"server_cpu_s_per_query":      t.cpu / attempted,
		"setup_s":                     median(setups),
	}
}

// finish assembles a run's result; a run is correct when nothing
// failed and no check added a failure note.
func finish(specs []metricSpec, values map[string]float64, attempted, failed int, detail runDetail) (result, runDetail, error) {
	metrics, missing := withUnits(specs, values)
	if len(missing) > 0 {
		return result{}, detail, fmt.Errorf("metrics not measured: %v", missing)
	}
	res := result{Correct: len(detail.Failures) == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	for _, f := range detail.Failures {
		fmt.Fprintf(os.Stderr, "bench: FAILED %s\n", f)
	}
	return res, detail, nil
}

// describe renders at most a handful of failures for the report.
func describe(w *workload, failures []sample) []string {
	var out []string
	for i, f := range failures {
		if i == 5 {
			out = append(out, fmt.Sprintf("... and %d more", len(failures)-i))
			break
		}
		out = append(out, fmt.Sprintf("%s: %v", w.queries[f.query].name, f.err))
	}
	return out
}

// report is result.json: the environment, then every run's metrics
// with the sample counts behind them.
type report struct {
	Schema     int         `json:"schema"`
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	Nproc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Clients    int         `json:"clients"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Runs       []reportRun `json:"runs"`

	spans []span
}

type reportRun struct {
	Workload string `json:"workload"`
	Kind     string `json:"kind"` // end_to_end or per_layer
	result
	runDetail
}

func newReport(root string, cfg config, seed int64) *report {
	return &report{Schema: 1, Commit: commitOf(root), GoVersion: runtime.Version(),
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: cfg.clients, Seed: seed, Seconds: cfg.seconds}
}

func (r *report) add(workload, kind string, res result, detail runDetail) {
	r.Runs = append(r.Runs, reportRun{Workload: workload, Kind: kind, result: res, runDetail: detail})
}

// write stores result.json and, when a traced run made any,
// spans.jsonl under dir.
func (r *report) write(dir string) error {
	body, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(body, '\n'), 0o644); err != nil {
		return err
	}
	if len(r.spans) == 0 {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// commitOf names the checkout's commit when it is a git repository
// (the driver's checkouts are not).
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
