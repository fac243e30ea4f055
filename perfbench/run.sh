#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload alloc-defer --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporaries) goes
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
