#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash perfbench/run.sh --workload bcast_k16 --seed 1 --seconds 10 --trace 0
# Run from the repository root. The binary, the Go build cache and the go
# command's own state (GOPATH, telemetry under XDG_CONFIG_HOME) all go to
# .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
