#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Everything the build and the run write stays under
# .bench_build/ at the checkout root: the Go build cache, temporary files,
# the binary, and the benchmark's scratch directories.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
export PPROF_TMPDIR="$build/gotmp" TMPDIR="$build/gotmp"

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
