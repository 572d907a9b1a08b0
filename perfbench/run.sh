#!/usr/bin/env bash
# Builds the source-to-verdict benchmark from the checkout that holds
# this script and runs it with the given arguments:
#
#	bash perfbench/run.sh --workload close --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and result files stay under
# .bench_build/ at the checkout root. Without the rest of the module
# next to perfbench/ the build fails and no result is printed.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
