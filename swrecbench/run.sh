#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash swrecbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/
# at the repository root (Go build and module caches, temp files, the
# binary, WAL directories, traces and stored results).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/swrecbench" .)
cd "$root"
exec "$out/swrecbench" --root "$root" "$@"
