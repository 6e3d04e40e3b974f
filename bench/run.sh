#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build writes (Go build cache included) stays under .bench_build/ in the
# checkout; nothing outside the checkout is read or written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/mmdb-bench" .)
exec "$out/mmdb-bench" "$@"
