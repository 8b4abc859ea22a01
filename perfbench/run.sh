#!/usr/bin/env bash
# Builds the SPES benchmark from this checkout and runs it, passing every
# argument through (see main.go for the flags). Run it from the root of the
# repository:
#
#   bash perfbench/run.sh --workload calcite-cold --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and the run's scratch files all live under
# .bench_build/ in the checkout; nothing is fetched over the network.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep the toolchain's caches, temporary files and configuration inside the
# checkout, and off the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
  GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$bench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
