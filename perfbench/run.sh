#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload web-fleet --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the checkout (binary, Go build cache,
# traced-run spans and profiles). The toolchain is used as installed and
# nothing is fetched: a checkout without the repository's sources fails
# to build, and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# The Go tool's cache, module path and config (telemetry counters) would
# otherwise land in the home directory.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

if ! (cd "$root/perfbench" && go build -o "$build/perfbench.bin" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$build/perfbench.bin" "$@"
