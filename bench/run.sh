#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build (binary and Go build
# cache both stay inside the checkout) and runs it from the checkout root.
# Any arguments are passed through, e.g.
#   bash bench/run.sh --workload p2p-flood --seed 7 --seconds 8 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/pperf-bench" .) >&2
cd "$root"
exec "$build/pperf-bench" "$@"
