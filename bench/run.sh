#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash bench/run.sh --workload paper12 --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact (Go build cache, binary, run journals,
# trace files) stays under .bench_build/ in the current directory. Build
# output goes to stderr, so the last line on stdout is always the result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its env file and telemetry counters in the user's
# config directory; keep them here instead.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/thalia-bench-e2e" .) >&2
exec "$out/thalia-bench-e2e" -dir "$out" "$@"
