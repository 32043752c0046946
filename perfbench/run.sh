#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload hunt --seed 3 --seconds 30 --trace 0
#   bash perfbench/run.sh --selftest
#
# Run it from the root of the checkout. Everything it writes (the Go build
# cache, the binary, CPU profiles and span logs) goes under .bench_build.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/pprof"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --outdir "$out" "$@"
