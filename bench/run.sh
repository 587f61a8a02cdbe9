#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout as `bash bench/run.sh --workload <name> --seed <n> --seconds <s>
# --trace <0|1>`; everything the build leaves behind (Go build cache, temp
# files, the binary) stays under .bench_build/ in that checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/sfcbench" .
cd "$root"
exec "$build/sfcbench" "$@"
