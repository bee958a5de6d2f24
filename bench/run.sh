#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root, passing the arguments through:
#
#   bash bench/run.sh --workload l1-kernel --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build and module caches, the
# binary, temporary files, telemetry) stays in .bench_build/ under the
# repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-build" GOPATH="$build/go" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
