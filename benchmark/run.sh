#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload verify-budget --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# benchmark/.build/, so the benchmark reads and writes nothing outside the
# checkout. The build fails (and nothing is printed on stdout) when the
# repository around benchmark/ is missing.
set -euo pipefail

root=$(pwd)
build="$root/benchmark/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
