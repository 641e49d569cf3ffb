#!/usr/bin/env bash
# Builds the benchmark harness and the reprod daemon from this checkout's
# source, then runs the harness, e.g.
#
#   bash perfbench/run.sh --workload fleet-compute --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout, so nothing
# is written outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/reprod" ./cmd/reprod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -reprod "$out/reprod" -out "$out" "$@"
