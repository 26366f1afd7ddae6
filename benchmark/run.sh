#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the build
# writes (Go's build cache included) stays under .bench_build, so a run
# reads and writes nothing outside the checkout it was started in.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$here" && go build -o "$build/fxbench" .) >&2
exec "$build/fxbench" "$@"
