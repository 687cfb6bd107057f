GO ?= go

.PHONY: all build vet test race verify lint fmt-check bench-all bench-compare bench-baseline trace-smoke server-smoke degrade-smoke stream-smoke bench-check paper-check workload-smoke chaos-smoke stats-smoke fuzz-short

# Packages with microbenchmarks, gated by bench-compare.
BENCH_PKGS = ./internal/core/ ./internal/sparql/ ./internal/engine/ ./internal/store/
BENCH_ARGS = -run NONE -bench . -benchmem -benchtime 300ms

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the concurrency-heavy packages: the elastic request
# handler, the executor's fail-fast paths, the endpoint client, the
# metrics registry, span attributes that concurrent requests add to,
# and the server daemon.
race:
	$(GO) test -race . ./internal/federation/... ./internal/core/... ./internal/endpoint/... ./internal/obs/... ./internal/stats/... ./internal/trace/... ./cmd/lusail-server/...

verify: build vet test race

# Formatting gate: fail when any file needs gofmt.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
	  echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi; \
	echo "gofmt OK"

# Static analysis beyond go vet. staticcheck and govulncheck are
# optional locally (skipped with a notice when not installed); CI
# installs and runs both unconditionally.
lint: vet fmt-check
	@if command -v staticcheck >/dev/null 2>&1; then \
	  staticcheck ./...; \
	else \
	  echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
	  govulncheck ./...; \
	else \
	  echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Microbenchmark regression gate: fail when any benchmark's ns/op or
# allocs/op exceeds 2x the committed baseline. CI runs this with
# -skip-time (allocs/op is deterministic; wall clock on shared runners
# is not).
bench-compare:
	$(GO) test $(BENCH_PKGS) $(BENCH_ARGS) | $(GO) run ./cmd/lusail-benchcmp -baseline BENCH_ALLOC_BASELINE.json

# Rewrite the committed microbenchmark baseline from a fresh run.
bench-baseline:
	$(GO) test $(BENCH_PKGS) $(BENCH_ARGS) | $(GO) run ./cmd/lusail-benchcmp -baseline BENCH_ALLOC_BASELINE.json -update

# Regenerate every paper figure/table.
bench-all:
	$(GO) run ./cmd/lusail-bench -exp all

# Sanity-check the tracing path end to end: the span tree must render
# the phase-1 and EXPLAIN ANALYZE sections for the LUBM queries and for a
# LargeRDFBench UNION and OPTIONAL query, with every planned subquery
# accounted for (lusail-bench fails on a planned-vs-executed count
# mismatch; "not executed" marks a subquery with no record and no reason).
trace-smoke:
	@out=$$($(GO) run ./cmd/lusail-bench -trace) || exit 1; \
	echo "$$out" | grep -q "phase1" && \
	echo "$$out" | grep -q "EXPLAIN ANALYZE" && \
	echo "$$out" | grep -q "union-0-alt-1:" && \
	echo "$$out" | grep -q "optional(group 0)" && \
	! echo "$$out" | grep "not executed" && \
	echo "trace smoke OK"

# Pipelined-execution smoke test: race-check the executor, the
# symmetric hash join, and the SPARQL protocol front — equality with
# the union-graph oracle for sink-delivered and collected results,
# cache replay around a streaming tail, the subquery cache's single
# flight and generation fence, the goroutine-leak guard, concurrent
# producers, client-disconnect cancellation, the handler's
# per-endpoint window carrying phase 2's VALUES blocks and bisection,
# the shared request decoder (gzip bodies included) of the endpoint
# substitute and lusail-server, and every streamed result format.
stream-smoke:
	$(GO) test -race -count=1 -run 'Stream|IndexProbe|MatchesOracle|Sink|Tail|GoroutineLeak|SubqueryCache|Bound|Bisect|Window|Handler|Protocol|Gzip' ./internal/core/ ./internal/sparql/ ./internal/federation/ ./internal/endpoint/ ./cmd/lusail-server/
	@echo "stream smoke OK"

# The benchmark harness (bench/, its own module, invisible to ./...)
# compiles against internal/core and the public streaming API: vet and
# test it so a refactor here cannot silently break it.
bench-check:
	$(GO) vet -C bench .
	$(GO) test -C bench .

# Paper work check: per-query endpoint requests, rows shipped and
# result rows of every engine on Fig. 11, 12 and 13 must match the
# committed goldens (testdata/work.golden, and work_fig13.golden for the
# baselines' Fig. 13 rows, which only -fig13 runs).
paper-check:
	$(GO) test -count=1 -run TestPaperWork ./internal/experiments -fig13
	@echo "paper check OK"

# Graceful-degradation smoke test: run the availability sweep and
# assert that skip-endpoint/best-effort return the surviving-partition
# answer against a hard-down endpoint while the fail policy errors.
degrade-smoke:
	@out=$$($(GO) run ./cmd/lusail-bench -exp degrade); \
	echo "$$out" | grep -qE "fail +ERR" && \
	echo "$$out" | grep -qE "best-effort +ok" && \
	echo "$$out" | grep -q "scenario B" && \
	echo "degrade smoke OK"

# Cross-query reuse smoke test: replay the Zipf workload with the
# subquery cache off and on; the cached pass must report a non-zero
# hit rate and zero plan-time endpoint requests on repeats.
workload-smoke:
	@out=$$($(GO) run ./cmd/lusail-bench -exp workload); \
	echo "$$out" | grep -qE "^on .* [1-9][0-9]*%$$" || \
	  { echo "workload smoke FAILED: no cache hits"; echo "$$out"; exit 1; }; \
	echo "$$out" | grep -E "^(off|on) " | awk '$$6 != 0 { bad=1 } END { exit bad }' || \
	  { echo "workload smoke FAILED: plan-time requests on repeats"; echo "$$out"; exit 1; }; \
	echo "workload smoke OK"

# Chaos soak: a seeded 200-query schedule of data churn composed with
# fault injection, run under the race detector. The enforcing pass
# must serve zero stale rows against a fresh no-cache oracle at the
# same data version; the version-blind control pass (endpoints that
# hide their data version, so the fence cannot see churn) must detect
# staleness with the same check (proving the oracle has teeth).
chaos-smoke:
	@out=$$($(GO) run -race ./cmd/lusail-bench -exp chaos) || \
	  { echo "chaos smoke FAILED"; echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q "chaos enforce verdict: PASS — stale rows: 0" || \
	  { echo "chaos smoke FAILED: enforce verdict missing"; echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q "chaos version-blind verdict: PASS" || \
	  { echo "chaos smoke FAILED: version-blind control missing"; echo "$$out"; exit 1; }; \
	echo "chaos smoke OK"

# Statistics smoke: run the offline-statistics replay under the race
# detector. The warm pass with harvested summaries must plan with zero
# endpoint probes, and calibration must strictly lower the median
# estimate q-error over the raw summaries.
stats-smoke:
	@out=$$($(GO) run -race ./cmd/lusail-bench -exp stats) || \
	  { echo "stats smoke FAILED"; echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q "stats verdict: PASS — warm-pass plan requests: 0" || \
	  { echo "stats smoke FAILED: warm-pass verdict missing"; echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q "calibration verdict: PASS" || \
	  { echo "stats smoke FAILED: calibration verdict missing"; echo "$$out"; exit 1; }; \
	echo "stats smoke OK"

# Short native-fuzz pass over the SPARQL parser (seed corpus plus a
# few seconds of mutation); CI runs this on every push.
fuzz-short:
	$(GO) test ./internal/sparql -run FuzzParse -fuzz FuzzParse -fuzztime 10s
	@echo "fuzz short OK"

# End-to-end daemon smoke test: boot lusail-server over two local
# N-Triples endpoints, wait for /readyz, run one federated query over
# the SPARQL protocol, scrape /metrics, and assert the query counter
# incremented.
server-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$srv 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/lusail-server ./cmd/lusail-server; \
	printf '<http://ex/s1> <http://ex/p> "a" .\n' > $$tmp/a.nt; \
	printf '<http://ex/s2> <http://ex/q> "b" .\n' > $$tmp/b.nt; \
	$$tmp/lusail-server -addr 127.0.0.1:18080 \
	  -endpoint $$tmp/a.nt -endpoint $$tmp/b.nt 2> $$tmp/server.log & srv=$$!; \
	for i in $$(seq 1 50); do \
	  code=$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18080/readyz || true); \
	  [ "$$code" = 200 ] && break; sleep 0.1; \
	done; \
	[ "$$code" = 200 ] || { echo "server never became ready"; cat $$tmp/server.log; exit 1; }; \
	curl -sf 'http://127.0.0.1:18080/sparql' \
	  --data-urlencode 'query=SELECT ?s WHERE { ?s ?p ?o }' | grep -q 'http://ex/s' || \
	  { echo "query failed"; cat $$tmp/server.log; exit 1; }; \
	curl -sf http://127.0.0.1:18080/metrics | grep -q '^lusail_queries_total 1$$' || \
	  { echo "lusail_queries_total did not increment"; exit 1; }; \
	echo "server smoke OK"
