#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. The driver calls
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# from the checkout's root. The binary, the Go build cache and whatever a
# run writes live under bench/out, so nothing outside the checkout is
# touched by the build; a second call finds the cache warm and only links.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/bench/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -C bench -o "$build/tpnrbench" . >&2
exec "$build/tpnrbench" "$@"
