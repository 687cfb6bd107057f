#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness (bench/, its
# own module) and cmd/lusail-server from the checkout this script sits
# in, keeping every build product and output under .bench_build/ in
# that checkout, then hands the driver's arguments to the harness.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/bin/lusail-bench" .
go build -C "$root" -o "$build/bin/lusail-server" ./cmd/lusail-server
exec "$build/bin/lusail-bench" -root "$root" -server "$build/bin/lusail-server" -out "$build/out" "$@"
