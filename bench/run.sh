#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs it with the driver's arguments. Everything the Go toolchain
# writes — build cache, temp files, its telemetry counters, the binary —
# stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
		go build -o "$build/portus-bench" .
) >&2
cd "$root"
exec "$build/portus-bench" "$@"
