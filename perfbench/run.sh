#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on to the benchmark:
#
#   bash perfbench/run.sh --workload predict-interactive --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, the run's scratch files and the span dump
# of a traced run all stay under .bench_build/ in the repository root.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
# Keep every file the go command writes (build cache, module cache,
# telemetry counters) inside the checkout.
(
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
	cd perfbench && go build -o "$build/perfbench" .
)
exec "$build/perfbench" --dir "$build" "$@"
