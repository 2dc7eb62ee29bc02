#!/usr/bin/env bash
# Builds the serve-path benchmark from this checkout and runs it:
#
#   bash servebench/run.sh --workload upload-binary --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache and the binary live
# under .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/servebench/go.mod" ]]; then
	echo "servebench: run from the root of a canids checkout (go.mod and servebench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOTMPDIR"
(cd "$root/servebench" && go build -trimpath -o "$build/bin/servebench" .)
exec "$build/bin/servebench" --out "$build/servebench-run" "$@"
