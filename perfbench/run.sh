#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, for
# example:
#
#   bash perfbench/run.sh --workload sweep-temporal --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the runs write
# (Go build cache, binary, traces, scratch stores) stays in .bench_build.
# The binary is built with -pgo=off, so a default.pgo never shapes what is
# measured.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -pgo=off -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
