#!/usr/bin/env bash
# The BENCHMARK.json command: builds the benchmark from source inside the
# checkout (it is a module of its own, see go.mod) and runs it from the
# checkout root with the driver's arguments. Everything the build writes —
# compile cache, temporaries, the binary — stays under .bench_build/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Always rebuild: with a warm cache this only re-hashes the sources, and a
# stale binary can never be measured by mistake.
(cd "$here" && go build -o "$out/bench" .) >&2

exec "$out/bench" "$@"
