#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, for example:
#
#   bash lofbench/run.sh --workload serve-exact --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, model snapshots and
# the spans of traced runs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS="-buildvcs=false" GOPROXY=off

(cd "$root/lofbench" && go build -o "$out/lofbench" .) >&2

cd "$root"
exec "$out/lofbench" --workdir "$out/work" --spans "$out/spans" "$@"
