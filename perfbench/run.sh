#!/usr/bin/env bash
# Builds thermherdd, thermherd-gw and the benchmark from the source in
# this checkout, then runs the benchmark with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload sim-quick --seed 1 --seconds 30 --trace 0
#
# Every build product and cache stays under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps its telemetry counters
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
mkdir -p "$out/bin" "$GOTMPDIR"
go build -o "$out/bin/" ./cmd/thermherdd ./cmd/thermherd-gw >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
