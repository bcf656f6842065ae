#!/usr/bin/env bash
# Builds the zkflow benchmark from the source of the checkout it sits
# in, then runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload epoch_stream --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the span dumps of traced runs all
# stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --trace-out "$out/perfbench-trace" "$@"
