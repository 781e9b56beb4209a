#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes (Go build and module caches, the toolchain's own
# counters, the binary, data directories, trace files) goes under
# .bench_build/ at the root of the checkout; nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
	export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
	go build -buildvcs=false -o "$build/gpuscout-bench" .
)
cd "$root"
exec "$build/gpuscout-bench" --scratch "$build" "$@"
