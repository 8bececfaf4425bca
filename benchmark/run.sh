#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash benchmark/run.sh --workload rewrite-corpus --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache live under .bench_build/ at the
# checkout root; nothing is fetched and nothing is written elsewhere.
# Outside a full checkout (no go.mod one level up) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
(cd "$root/benchmark" && go build -o "$out/benchmark" .) >&2
exec "$out/benchmark" "$@"
