#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs one
# workload:
#
#   bash perfbench/run.sh --workload ladder --seed 1 --seconds 20 --trace 0
#
# Build cache, binary and temporary files all stay under .bench_build/ at
# the checkout root. Outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -spans-dir "$out/spans" "$@"
