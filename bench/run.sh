#!/usr/bin/env bash
# Builds the benchmark and lcfd from the checkout this script sits in and
# runs the benchmark with the arguments given. Everything the build writes
# (Go's build cache included) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp
export GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -o "$build/bin/lcfbench" .) >&2
(cd "$root" && go build -o "$build/bin/lcfd" ./cmd/lcfd) >&2

exec "$build/bin/lcfbench" -lcfd "$build/bin/lcfd" -out "$root/bench/out" "$@"
